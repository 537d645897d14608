package baseline

import (
	"math"
	"math/rand/v2"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
)

// Uplink models one backscatter uplink scheme at the symbol level: given a
// per-symbol SNR at the receiver, it reports the bit error rate. Both
// implementations run Monte-Carlo trials of the actual receiver algorithm
// rather than a closed-form curve, so modulation-specific behavior (CSS
// processing gain vs OOK) is reproduced, not asserted.
type Uplink interface {
	Name() string
	// BER measures the uplink bit error rate at the given receiver-side
	// SNR (dB, in the chirp bandwidth).
	BER(snrDB float64, nSymbols int, rng *rand.Rand) float64
	// BitsPerSymbol reports the modulation's payload bits per symbol.
	BitsPerSymbol() int
}

// PLoRaUplink is PLoRa's chirp-reflecting uplink: the tag shifts the
// ambient LoRa chirp to a clean band, and a standard dechirp-FFT receiver
// decodes CSS symbols. SF and BW default to PLoRa's evaluation setting.
type PLoRaUplink struct {
	Params lora.Params
	rx     *lora.Receiver
}

// NewPLoRaUplink builds the uplink with PLoRa's SF9/BW125 configuration.
func NewPLoRaUplink() (*PLoRaUplink, error) {
	p := lora.Params{SF: 9, BandwidthHz: lora.Bandwidth125k, K: 9, CarrierHz: lora.DefaultCarrierHz}
	rx, err := lora.NewReceiver(p, p.BandwidthHz)
	if err != nil {
		return nil, err
	}
	return &PLoRaUplink{Params: p, rx: rx}, nil
}

// Name implements Uplink.
func (u *PLoRaUplink) Name() string { return "PLoRa" }

// BitsPerSymbol implements Uplink: a full CSS alphabet carries SF bits.
func (u *PLoRaUplink) BitsPerSymbol() int { return u.Params.SF }

// BER implements Uplink by running the dechirp-FFT receiver over noisy
// chirps.
func (u *PLoRaUplink) BER(snrDB float64, nSymbols int, rng *rand.Rand) float64 {
	p := u.Params
	amp := math.Sqrt(dsp.FromDB(snrDB))
	errs, bits := 0, 0
	var iq []complex128
	for s := 0; s < nSymbols; s++ {
		m := rng.IntN(p.ChirpCount())
		iq = p.IQ(iq[:0], m, p.BandwidthHz)
		for i := range iq {
			iq[i] *= complex(amp, 0)
		}
		dsp.AddComplexNoise(iq, 1, rng)
		_, bin := u.rx.DemodSymbol(iq)
		diff := bin ^ m
		for b := 0; b < p.SF; b++ {
			if diff>>b&1 == 1 {
				errs++
			}
		}
		bits += p.SF
	}
	return float64(errs) / float64(bits)
}

// AlobaUplink is Aloba's on-off-keying uplink: the tag toggles reflection
// of the ambient chirp per bit, and the receiver energy-detects each bit
// interval. OOK has no spreading gain, so its BER curve sits well above
// PLoRa's at equal SNR — exactly the Figure 2 relationship.
type AlobaUplink struct {
	// SamplesPerBit is the energy-integration window.
	SamplesPerBit int
}

// NewAlobaUplink builds the uplink with Aloba's nominal bit length.
func NewAlobaUplink() *AlobaUplink {
	return &AlobaUplink{SamplesPerBit: 64}
}

// Name implements Uplink.
func (u *AlobaUplink) Name() string { return "Aloba" }

// BitsPerSymbol implements Uplink.
func (u *AlobaUplink) BitsPerSymbol() int { return 1 }

// BER implements Uplink with a noncoherent energy detector per bit.
func (u *AlobaUplink) BER(snrDB float64, nSymbols int, rng *rand.Rand) float64 {
	n := u.SamplesPerBit
	// Per-sample SNR: the bit energy spreads across the window.
	amp := math.Sqrt(dsp.FromDB(snrDB))
	// Decision threshold between E[off]=n and E[on]=n(1+amp^2),
	// positioned at the geometric mean of the two energy levels.
	thresh := float64(n) * math.Sqrt(1+amp*amp)
	errs := 0
	x := make([]complex128, n)
	for s := 0; s < nSymbols; s++ {
		bit := rng.IntN(2)
		for i := range x {
			if bit == 1 {
				x[i] = complex(amp, 0)
			} else {
				x[i] = 0
			}
		}
		dsp.AddComplexNoise(x, 1, rng)
		e := dsp.ComplexPower(x) * float64(n)
		got := 0
		if e > thresh {
			got = 1
		}
		if got != bit {
			errs++
		}
	}
	return float64(errs) / float64(nSymbols)
}

// UplinkBERAtGeometry computes an uplink's BER for the Figure 2 geometry:
// transmitter and receiver separated by txRxM, tag dTxTag meters from the
// transmitter on the line between them.
func UplinkBERAtGeometry(u Uplink, link radio.BackscatterLink, dTxTag, txRxM float64, nSymbols int, seed uint64) float64 {
	dTagRx := txRxM - dTxTag
	if dTagRx < 1 {
		dTagRx = 1
	}
	var bw float64
	switch v := u.(type) {
	case *PLoRaUplink:
		bw = v.Params.BandwidthHz
	default:
		bw = lora.Bandwidth125k
	}
	snr := link.SNRDB(dTxTag, dTagRx, bw)
	rng := dsp.NewRand(seed, math.Float64bits(dTxTag))
	return u.BER(snr, nSymbols, rng)
}
