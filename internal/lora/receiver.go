package lora

import (
	"saiyan/internal/dsp"
)

// Receiver is the standard coherent LoRa demodulator: dechirp with the
// conjugate base chirp, FFT, and pick the strongest bin. It models the
// USRP N210 / commercial gateway receiver of Section 4.2 and is the
// comparator Saiyan is measured against — it needs full IQ sampling at the
// chirp bandwidth, which is exactly what costs >40 mW on real hardware.
//
// The zero value is not usable; construct with NewReceiver.
type Receiver struct {
	params     Params
	sampleRate float64
	spb        int
	down       []complex128 // conjugate base chirp
	fftBuf     []complex128
}

// NewReceiver builds a receiver for the given parameters. sampleRate must be
// at least the chirp bandwidth; the canonical choice is exactly BW so that
// one symbol fills 2^SF samples and FFT bins align with chirp positions.
func NewReceiver(p Params, sampleRate float64) (*Receiver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &Receiver{params: p, sampleRate: sampleRate}
	r.spb = p.SamplesPerSymbol(sampleRate)
	r.down = p.Downchirp(nil, sampleRate)
	r.fftBuf = make([]complex128, dsp.NextPow2(r.spb))
	return r, nil
}

// DemodSymbol demodulates one symbol window (len >= SamplesPerSymbol) and
// returns the downlink symbol index plus the full-alphabet bin it mapped
// from.
func (r *Receiver) DemodSymbol(iq []complex128) (sym, bin int) {
	n := r.spb
	if len(iq) < n {
		n = len(iq)
	}
	buf := r.fftBuf
	for i := range buf {
		buf[i] = 0
	}
	for i := 0; i < n; i++ {
		buf[i] = iq[i] * r.down[i]
	}
	dsp.FFT(buf)
	k, _ := dsp.ArgmaxAbs(buf)
	// Map the FFT bin to a full-alphabet chirp position. The dechirped tone
	// for position m lands at frequency m/2^SF*BW - offsets that alias onto
	// bin m when sampleRate == BW and the FFT length equals spb. For padded
	// FFTs, rescale.
	binPos := float64(k) / float64(len(buf)) * float64(r.spb)
	m := binPos / float64(r.spb) * float64(r.params.ChirpCount())
	sym = r.params.NearestSymbol(m)
	return sym, int(m + 0.5)
}
