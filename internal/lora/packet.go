package lora

import (
	"fmt"
	"math"
)

// DefaultPayloadSymbols is the paper's packet payload length: "the payload
// of each LoRa packet contains 32 chirp symbols" (Section 5 setup).
const DefaultPayloadSymbols = 32

// Frame is a downlink LoRa packet at the symbol level: a preamble of
// identical up-chirps, 2.25 symbol times of sync, and a payload of downlink
// symbols drawn from the 2^K alphabet.
type Frame struct {
	Params  Params
	Payload []int // downlink symbol indices, each in [0, 2^K)
}

// NewFrame builds a frame after validating parameters and symbol range.
func NewFrame(p Params, payload []int) (*Frame, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i, s := range payload {
		if s < 0 || s >= p.AlphabetSize() {
			return nil, fmt.Errorf("lora: payload[%d]=%d outside alphabet [0,%d)", i, s, p.AlphabetSize())
		}
	}
	cp := make([]int, len(payload))
	copy(cp, payload)
	return &Frame{Params: p, Payload: cp}, nil
}

// PayloadBits unpacks the payload symbols into bits, most significant bit of
// each symbol first.
func (f *Frame) PayloadBits() []int {
	bits := make([]int, 0, len(f.Payload)*f.Params.K)
	for _, s := range f.Payload {
		for b := f.Params.K - 1; b >= 0; b-- {
			bits = append(bits, (s>>b)&1)
		}
	}
	return bits
}

// SymbolsFromBits packs a bit slice into downlink symbols (MSB first),
// padding the final symbol with zeros.
func SymbolsFromBits(p Params, bits []int) []int {
	var syms []int
	for i := 0; i < len(bits); i += p.K {
		s := 0
		for b := 0; b < p.K; b++ {
			s <<= 1
			if i+b < len(bits) && bits[i+b] != 0 {
				s |= 1
			}
		}
		syms = append(syms, s)
	}
	return syms
}

// Durations.

// PreambleDuration is the time occupied by the preamble up-chirps.
func (f *Frame) PreambleDuration() float64 {
	return PreambleUpchirps * f.Params.SymbolDuration()
}

// Duration is the total frame duration including preamble, sync and payload.
func (f *Frame) Duration() float64 {
	return (PreambleUpchirps + SyncSymbols + float64(len(f.Payload))) * f.Params.SymbolDuration()
}

// symbolSequence returns the full-alphabet chirp position of every symbol
// slot in the frame, with -1 marking the fractional sync gap handled
// separately.
func (f *Frame) fullPositions() []int {
	pos := make([]int, 0, PreambleUpchirps+len(f.Payload))
	for i := 0; i < PreambleUpchirps; i++ {
		pos = append(pos, 0) // preamble: base up-chirps
	}
	for _, s := range f.Payload {
		pos = append(pos, f.Params.SymbolValue(s))
	}
	return pos
}

// FreqTrajectory renders the instantaneous-frequency trajectory of the whole
// frame at sampleRate: preamble, a sync gap of 2.25 symbol times at zero
// offset (the tag only needs its duration, Section 2.2), then the payload.
func (f *Frame) FreqTrajectory(dst []float64, sampleRate float64) []float64 {
	p := f.Params
	spb := p.SamplesPerSymbol(sampleRate)
	syncSamples := int(math.Round(SyncSymbols * float64(spb)))
	total := f.TrajectoryLen(sampleRate)
	if cap(dst) < total {
		dst = make([]float64, total)
	}
	dst = dst[:total]
	at := 0
	sym := make([]float64, 0, spb)
	for i := 0; i < PreambleUpchirps; i++ {
		sym = p.FreqTrajectory(sym[:0], 0, sampleRate)
		copy(dst[at:], sym)
		at += spb
	}
	for i := 0; i < syncSamples; i++ {
		dst[at+i] = 0
	}
	at += syncSamples
	for _, s := range f.Payload {
		sym = p.FreqTrajectory(sym[:0], p.SymbolValue(s), sampleRate)
		copy(dst[at:], sym)
		at += spb
	}
	return dst
}

// TrajectoryLen returns the length of the frame's trajectory (and IQ
// waveform) rendered at sampleRate: preamble, sync gap and payload.
func (f *Frame) TrajectoryLen(sampleRate float64) int {
	return f.PayloadOffsetSamples(sampleRate) + len(f.Payload)*f.Params.SamplesPerSymbol(sampleRate)
}

// PayloadOffsetSamples returns the sample index at which the payload begins
// for a trajectory rendered at sampleRate.
func (f *Frame) PayloadOffsetSamples(sampleRate float64) int {
	spb := f.Params.SamplesPerSymbol(sampleRate)
	return PreambleUpchirps*spb + int(math.Round(SyncSymbols*float64(spb)))
}

// IQ renders the complex-baseband waveform of the whole frame (for the
// standard receiver and the backscatter uplink models).
func (f *Frame) IQ(dst []complex128, sampleRate float64) []complex128 {
	p := f.Params
	spb := p.SamplesPerSymbol(sampleRate)
	syncSamples := int(math.Round(SyncSymbols * float64(spb)))
	total := f.TrajectoryLen(sampleRate)
	if cap(dst) < total {
		dst = make([]complex128, total)
	}
	dst = dst[:total]
	at := 0
	sym := make([]complex128, 0, spb)
	for _, m := range f.fullPositions()[:PreambleUpchirps] {
		sym = p.IQ(sym[:0], m, sampleRate)
		copy(dst[at:], sym)
		at += spb
	}
	for i := 0; i < syncSamples; i++ {
		dst[at+i] = 0
	}
	at += syncSamples
	for _, s := range f.Payload {
		sym = p.IQ(sym[:0], p.SymbolValue(s), sampleRate)
		copy(dst[at:], sym)
		at += spb
	}
	return dst
}

// CountBitErrors compares two symbol sequences bit by bit (each symbol
// carries k bits) and returns the number of differing bits and the total
// bits compared. Length mismatches count every bit of the missing tail as
// an error, matching how a real BER test scores lost symbols.
func CountBitErrors(want, got []int, k int) (errs, total int) {
	n := len(want)
	total = n * k
	for i := 0; i < n; i++ {
		if i >= len(got) {
			errs += k
			continue
		}
		diff := want[i] ^ got[i]
		for b := 0; b < k; b++ {
			if diff>>b&1 == 1 {
				errs++
			}
		}
	}
	return errs, total
}
