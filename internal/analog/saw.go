// Package analog models Saiyan's analog front end: the SAW filter used as a
// frequency-to-amplitude converter, the LNA, the square-law envelope
// detector with its baseband impairments, the RF mixers / IF amplifier /
// low-pass filter of the cyclic-frequency-shifting circuit, the
// double-threshold comparator, and the low-rate voltage sampler.
//
// Components operate on normalized simulation units: the RF complex
// envelope is scaled so the front-end thermal noise has unit power, which
// keeps every downstream threshold dimensionless and comparable across
// experiments.
package analog

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"saiyan/internal/dsp"
)

// SAWPoint is one anchor of the SAW filter's amplitude-frequency response.
type SAWPoint struct {
	FreqHz float64
	GainDB float64 // response relative to a 0 dBm input
}

// SAWFilter models the Qualcomm B39431B3790Z810 used by the prototype. The
// response is a piecewise-linear (in dB) interpolation through measured
// anchors; the paper's Figure 5 gives the critical-band points and the
// 10 dB insertion loss.
type SAWFilter struct {
	points  []SAWPoint
	driftHz float64
}

// PaperSAWPoints reproduces Figure 5: the response climbs 25 dB between
// 433.5 and 434 MHz (9.5 dB from 433.75, 7.2 dB from 433.875), tops out at
// the -10 dB insertion loss across the passband, and falls into a deep
// stopband on both sides.
func PaperSAWPoints() []SAWPoint {
	return []SAWPoint{
		{428.0e6, -60},
		{432.0e6, -52},
		{433.0e6, -43},
		{433.5e6, -35},
		{433.75e6, -19.5},
		{433.875e6, -17.2},
		{434.0e6, -10},
		{436.4e6, -10},
		{437.5e6, -40},
		{440.0e6, -60},
	}
}

// NewSAWFilter builds a filter from response anchors, which must be sorted
// by frequency and contain at least two points.
func NewSAWFilter(points []SAWPoint) (*SAWFilter, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("analog: SAW response needs >= 2 anchors, got %d", len(points))
	}
	cp := make([]SAWPoint, len(points))
	copy(cp, points)
	if !sort.SliceIsSorted(cp, func(i, j int) bool { return cp[i].FreqHz < cp[j].FreqHz }) {
		return nil, fmt.Errorf("analog: SAW response anchors must be sorted by frequency")
	}
	return &SAWFilter{points: cp}, nil
}

// PaperSAW returns the Figure 5 filter.
func PaperSAW() *SAWFilter {
	f, err := NewSAWFilter(PaperSAWPoints())
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return f
}

// SetDrift shifts the whole response by driftHz, modeling the SAW
// temperature coefficient (negative drift moves the band down, as happens
// above the reference temperature).
func (s *SAWFilter) SetDrift(driftHz float64) { s.driftHz = driftHz }

// Drift returns the configured response shift in Hz.
func (s *SAWFilter) Drift() float64 { return s.driftHz }

// Clone returns a filter with the same response and drift whose drift
// moves independently of s. The anchors are never written after
// NewSAWFilter, so the two share them.
func (s *SAWFilter) Clone() *SAWFilter {
	c := *s
	return &c
}

// Equal reports whether two filters have the same anchors and drift.
func (s *SAWFilter) Equal(o *SAWFilter) bool {
	return s.driftHz == o.driftHz && slices.Equal(s.points, o.points)
}

// ResponseDB returns the filter response (dB) at the RF frequency fHz,
// interpolating linearly in dB between anchors and clamping beyond them.
func (s *SAWFilter) ResponseDB(fHz float64) float64 {
	f := fHz - s.driftHz
	pts := s.points
	if f <= pts[0].FreqHz {
		return pts[0].GainDB
	}
	if f >= pts[len(pts)-1].FreqHz {
		return pts[len(pts)-1].GainDB
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].FreqHz >= f })
	lo, hi := pts[i-1], pts[i]
	frac := (f - lo.FreqHz) / (hi.FreqHz - lo.FreqHz)
	return lo.GainDB + frac*(hi.GainDB-lo.GainDB)
}

// Gain returns the linear amplitude gain at fHz.
func (s *SAWFilter) Gain(fHz float64) float64 {
	return dsp.AmpFromDB(s.ResponseDB(fHz))
}

// sawFilterJSON is the serialized form of SAWFilter; trace headers embed the
// full demodulator configuration, including a possibly non-default SAW
// response, so the filter must round-trip through JSON.
type sawFilterJSON struct {
	Points  []SAWPoint `json:"points"`
	DriftHz float64    `json:"drift_hz,omitempty"`
}

// MarshalJSON serializes the response anchors and drift.
func (s *SAWFilter) MarshalJSON() ([]byte, error) {
	return json.Marshal(sawFilterJSON{Points: s.points, DriftHz: s.driftHz})
}

// UnmarshalJSON rebuilds the filter, re-validating the anchors.
func (s *SAWFilter) UnmarshalJSON(data []byte) error {
	var j sawFilterJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	rebuilt, err := NewSAWFilter(j.Points)
	if err != nil {
		return err
	}
	rebuilt.driftHz = j.DriftHz
	*s = *rebuilt
	return nil
}

// CriticalBandTopHz is the frequency where the Figure 5 response peaks.
const CriticalBandTopHz = 434.0e6

// AmplitudeGapDB returns the response swing across a chirp of the given
// bandwidth ending at the top of the critical band — the quantity Figure 23
// measures (25/9.5/7.2 dB for 500/250/125 kHz).
func (s *SAWFilter) AmplitudeGapDB(bandwidthHz float64) float64 {
	top := CriticalBandTopHz + s.driftHz
	return s.ResponseDB(top) - s.ResponseDB(top-bandwidthHz)
}

// InsertionLossDB reports the loss at the passband top (10 dB for the paper
// device).
func (s *SAWFilter) InsertionLossDB() float64 {
	return -s.ResponseDB(CriticalBandTopHz + s.driftHz)
}

// LNA is the common-gate low-noise amplifier between the SAW filter and the
// envelope detector (Section 4.1, [17]).
type LNA struct {
	GainDB        float64
	NoiseFigureDB float64
}

// DefaultLNA matches a 0.6 V common-gate design at 429-434 MHz: ~18 dB of
// gain. NoiseFigureDB is the *cascade* noise figure of the micro-power LNA
// plus the lossy passive detector that follows it — sub-milliwatt
// common-gate LNAs run double-digit noise figures, and the figure here is
// calibrated so the full system's sensitivity lands at the paper's
// measured -85.8 dBm (Section 5.2.1).
func DefaultLNA() LNA { return LNA{GainDB: 18, NoiseFigureDB: 4} }
