// Package radio models the wireless medium of the paper's evaluation: a
// log-distance path-loss channel at 433 MHz with optional concrete-wall
// penetration losses, thermal noise, backscatter (two-hop) links, in-band
// jammers, and the diurnal temperature profile that shifts the SAW filter's
// response in Figure 24.
//
// All absolute calibration constants live here so that DESIGN.md can point
// at one file. BER/range *shapes* come from running the demodulation
// algorithms against signals scaled by this link budget.
package radio

import (
	"fmt"
	"math"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299_792_458.0

// ThermalNoiseDensity is kT at 290 K in dBm/Hz.
const ThermalNoiseDensity = -174.0

// Environment selects the propagation setting of the paper's field studies.
type Environment int

const (
	// Outdoor is the line-of-sight field of Section 5.1.1 (square, parking
	// lot, road in Figure 14).
	Outdoor Environment = iota
	// Indoor is the non-line-of-sight office setting of Section 5.1.2;
	// combine with Walls for the one/two-concrete-wall experiments.
	Indoor
)

// String names the environment.
func (e Environment) String() string {
	if e == Indoor {
		return "indoor"
	}
	return "outdoor"
}

// LinkBudget captures one directional radio link.
type LinkBudget struct {
	TxPowerDBm   float64     // transmit power (paper: 20 dBm)
	TxAntennaDBi float64     // transmitter antenna gain (paper: 3 dBi)
	RxAntennaDBi float64     // receiver antenna gain (paper: 3 dBi)
	CarrierHz    float64     // carrier frequency
	Env          Environment // outdoor LoS or indoor NLoS exponent
	Walls        int         // concrete walls between Tx and Rx
	NoiseFigure  float64     // receiver noise figure in dB
	ExtraLossDB  float64     // matching/cable/implementation losses

	// ShadowingSigmaDB is a log-normal shadowing spread around RSSDBm.
	// No model here draws shadowed RSS (every paper reproduction keeps
	// the channel deterministic); the field stays so trace headers that
	// record a link keep their schema.
	ShadowingSigmaDB float64
}

// Calibration constants (see DESIGN.md Section 5). The outdoor exponent is
// fit so that an 11 dB SNR gain doubles the range, as the paper reports for
// cyclic-frequency shifting, and so the -85.8 dBm sensitivity point lands at
// ~180 m; the indoor exponent and wall loss are fit to Figures 19-21.
const (
	OutdoorPathLossExp = 3.8
	IndoorPathLossExp  = 4.5
	WallLossDB         = 11.0
	refDistanceM       = 1.0
)

// DefaultLinkBudget returns the paper's Section 5 setup: 20 dBm Tx, 3 dBi
// omni antennas on both ends, 433.5 MHz, outdoors, 6 dB receiver noise
// figure.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{
		TxPowerDBm:   20,
		TxAntennaDBi: 3,
		RxAntennaDBi: 3,
		CarrierHz:    433.5e6,
		Env:          Outdoor,
		NoiseFigure:  6,
		ExtraLossDB:  1,
	}
}

// PathLossExponent returns the exponent for the configured environment.
func (lb LinkBudget) PathLossExponent() float64 {
	if lb.Env == Indoor {
		return IndoorPathLossExp
	}
	return OutdoorPathLossExp
}

// refLossDB is the free-space loss at the 1 m reference distance:
// 20 log10(4*pi*d0*f/c).
func (lb LinkBudget) refLossDB() float64 {
	return 20 * math.Log10(4*math.Pi*refDistanceM*lb.CarrierHz/SpeedOfLight)
}

// PathLossDB returns the total propagation loss at distance d (meters),
// including wall penetration. Distances below the 1 m reference clamp to
// the reference loss.
func (lb LinkBudget) PathLossDB(d float64) float64 {
	if d < refDistanceM {
		d = refDistanceM
	}
	pl := lb.refLossDB() + 10*lb.PathLossExponent()*math.Log10(d/refDistanceM)
	pl += float64(lb.Walls) * WallLossDB
	return pl
}

// RSSDBm returns the received signal strength at distance d.
func (lb LinkBudget) RSSDBm(d float64) float64 {
	return lb.TxPowerDBm + lb.TxAntennaDBi + lb.RxAntennaDBi - lb.PathLossDB(d) - lb.ExtraLossDB
}

// NoiseFloorDBm returns the receiver noise floor for the given bandwidth.
func (lb LinkBudget) NoiseFloorDBm(bandwidthHz float64) float64 {
	if bandwidthHz <= 0 {
		return math.Inf(-1)
	}
	return ThermalNoiseDensity + 10*math.Log10(bandwidthHz) + lb.NoiseFigure
}

// String summarizes the budget for logs and experiment headers.
func (lb LinkBudget) String() string {
	return fmt.Sprintf("%s link, %g dBm +%g/%g dBi @ %.1f MHz, %d wall(s)",
		lb.Env, lb.TxPowerDBm, lb.TxAntennaDBi, lb.RxAntennaDBi, lb.CarrierHz/1e6, lb.Walls)
}

// BackscatterLink models the two-hop uplink of Figure 2: carrier from the
// transmitter travels to the tag, is modulated and reflected with a
// conversion loss, and travels on to the receiver.
type BackscatterLink struct {
	Forward          LinkBudget // Tx -> tag segment
	Backward         LinkBudget // tag -> Rx segment
	ModulationLossDB float64    // backscatter conversion loss at the tag
}

// DefaultBackscatterLink mirrors the Figure 2 setup: both segments outdoors,
// and a typical 8 dB backscatter modulation loss.
func DefaultBackscatterLink() BackscatterLink {
	fw := DefaultLinkBudget()
	bw := DefaultLinkBudget()
	bw.TxPowerDBm = 0 // reflected power is computed from the forward hop
	return BackscatterLink{Forward: fw, Backward: bw, ModulationLossDB: 8}
}

// RSSDBm returns the backscatter signal strength at the receiver when the
// tag sits dTxTag meters from the transmitter and dTagRx meters from the
// receiver.
func (b BackscatterLink) RSSDBm(dTxTag, dTagRx float64) float64 {
	atTag := b.Forward.RSSDBm(dTxTag)
	return atTag - b.ModulationLossDB + b.Backward.RxAntennaDBi + b.Backward.TxAntennaDBi -
		b.Backward.PathLossDB(dTagRx) - b.Backward.ExtraLossDB
}

// SNRDB returns the uplink SNR at the receiver.
func (b BackscatterLink) SNRDB(dTxTag, dTagRx, bandwidthHz float64) float64 {
	return b.RSSDBm(dTxTag, dTagRx) - b.Backward.NoiseFloorDBm(bandwidthHz)
}
