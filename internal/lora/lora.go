// Package lora implements the LoRa physical layer used by the Saiyan
// simulator: chirp-spread-spectrum symbol synthesis, downlink packet framing
// (preamble, sync, payload), and the standard dechirp-FFT receiver that a
// commercial gateway or USRP would run.
//
// Terminology follows the paper. A symbol carries K bits ("coding rate"
// CR=K in the paper's evaluation, K in 1..5), selected from an alphabet of
// 2^K chirps whose initial frequency offsets are evenly spaced across the
// 2^SF positions of a full LoRa alphabet. The symbol duration is
// 2^SF / BW seconds and the downlink bit rate is K*BW/2^SF.
package lora

import (
	"fmt"
	"math"
)

// Standard LoRa bandwidths in Hz.
const (
	Bandwidth125k = 125_000.0
	Bandwidth500k = 500_000.0
)

// PreambleUpchirps is the number of identical up-chirps in a LoRa preamble.
// The paper's decoder waits for 2.25 further symbol times of sync word
// before the payload (Section 2.2, Figure 8).
const (
	PreambleUpchirps = 10
	SyncSymbols      = 2.25
)

// Params describes one LoRa downlink configuration.
type Params struct {
	SF          int     // spreading factor, 7..12
	BandwidthHz float64 // chirp bandwidth in Hz
	K           int     // bits per chirp (paper's CR), 1..SF
	CarrierHz   float64 // RF carrier at the *start* of the chirp sweep
}

// DefaultCarrierHz is the paper's evaluation band: chirps sweep from
// 433.5 MHz up to 433.5 MHz + BW (Section 5: "the LoRa transmitter works on
// the 433.5 MHz frequency band" with the SAW critical band ending at
// 434 MHz).
const DefaultCarrierHz = 433.5e6

// Validate reports whether the parameter combination is usable.
func (p Params) Validate() error {
	if p.SF < 5 || p.SF > 12 {
		return fmt.Errorf("lora: SF %d outside [5, 12]", p.SF)
	}
	if p.BandwidthHz <= 0 {
		return fmt.Errorf("lora: bandwidth %g Hz must be positive", p.BandwidthHz)
	}
	if p.K < 1 || p.K > p.SF {
		return fmt.Errorf("lora: K=%d bits/chirp outside [1, SF=%d]", p.K, p.SF)
	}
	if p.CarrierHz <= 0 {
		return fmt.Errorf("lora: carrier %g Hz must be positive", p.CarrierHz)
	}
	return nil
}

// ChirpCount is the number of frequency positions in a full LoRa alphabet,
// 2^SF.
func (p Params) ChirpCount() int { return 1 << p.SF }

// AlphabetSize is the number of distinct downlink symbols, 2^K.
func (p Params) AlphabetSize() int { return 1 << p.K }

// AlphabetStride is the spacing, in full-alphabet chirp positions, between
// consecutive downlink symbols: 2^(SF-K).
func (p Params) AlphabetStride() int { return 1 << (p.SF - p.K) }

// SymbolDuration returns the chirp duration 2^SF / BW in seconds.
func (p Params) SymbolDuration() float64 {
	return float64(p.ChirpCount()) / p.BandwidthHz
}

// BitRate returns the downlink data rate K*BW/2^SF in bits per second.
//
//lint:allow unused the link goodput and paper derived-quantity tests measure against it
func (p Params) BitRate() float64 {
	return float64(p.K) * p.BandwidthHz / float64(p.ChirpCount())
}

// NyquistSampleRate is the theoretical minimum comparator sampling rate
// 2*BW/2^(SF-K) from the paper's Nyquist argument (Section 2.3).
func (p Params) NyquistSampleRate() float64 {
	return 2 * p.BandwidthHz / float64(p.AlphabetStride())
}

// ChirpRate returns the frequency sweep rate BW/T in Hz per second.
func (p Params) ChirpRate() float64 {
	return p.BandwidthHz / p.SymbolDuration()
}

// SymbolValue converts a downlink symbol index (0..2^K-1) to its position m
// in the full 2^SF chirp alphabet.
func (p Params) SymbolValue(sym int) int {
	return sym * p.AlphabetStride()
}

// NearestSymbol maps a full-alphabet chirp position m back to the nearest
// downlink symbol index, wrapping cyclically (position 2^SF is position 0).
func (p Params) NearestSymbol(m float64) int {
	n := float64(p.ChirpCount())
	stride := float64(p.AlphabetStride())
	m = math.Mod(m, n)
	if m < 0 {
		m += n
	}
	sym := int(math.Round(m / stride))
	return sym % p.AlphabetSize()
}

// String formats the configuration the way the paper reports it.
func (p Params) String() string {
	return fmt.Sprintf("SF%d/BW%.0fkHz/CR%d", p.SF, p.BandwidthHz/1000, p.K)
}

// DefaultParams returns the paper's baseline evaluation setting: SF=7,
// BW=500 kHz (Section 5 setup) with K=1.
func DefaultParams() Params {
	return Params{SF: 7, BandwidthHz: Bandwidth500k, K: 1, CarrierHz: DefaultCarrierHz}
}
