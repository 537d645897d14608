package analog

import (
	"fmt"

	"saiyan/internal/dsp"
)

// Sampler is the proactive low-power voltage sampler of Section 2.3: it
// reads the comparator output (or, in correlator mode, the analog envelope)
// at a rate far below the chirp bandwidth — 3.2*BW/2^(SF-K) in the paper's
// conservative setting — and the MCU counts the resulting binary stream.
type Sampler struct {
	// Oversample is the ratio between the simulation rate and the sampler
	// output rate; the simulator renders analog stages Oversample times
	// faster than the sampler reads them.
	Oversample int
}

// NewSampler validates the oversampling factor.
func NewSampler(oversample int) (Sampler, error) {
	if oversample < 1 {
		return Sampler{}, fmt.Errorf("analog: oversample factor %d < 1", oversample)
	}
	return Sampler{Oversample: oversample}, nil
}

// Phase is the index of the first sample point. Sample points sit mid-way
// through each oversampling window, modeling a sample-and-hold triggered at
// the window center.
func (s Sampler) Phase() int { return s.Oversample / 2 }

// SampleFloats decimates an analog series down to the sampler rate.
func (s Sampler) SampleFloats(dst, x []float64) []float64 {
	return dsp.Decimate(dst, x, s.Oversample, s.Phase())
}

// SampleFiltered is SampleFloats of f.Apply(x), computing only the filter
// outputs the sampler reads. dst must not overlap x.
func (s Sampler) SampleFiltered(dst, x []float64, f *dsp.FIR) []float64 {
	return f.ApplyDecimated(dst, x, s.Oversample, s.Phase())
}

// SampleBits decimates a binary comparator stream down to the sampler rate.
func (s Sampler) SampleBits(dst []bool, b []bool) []bool {
	n := 0
	off := s.Phase()
	if off < len(b) {
		n = (len(b) - off + s.Oversample - 1) / s.Oversample
	}
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = b[off+i*s.Oversample]
	}
	return dst
}

// OutputLen reports how many sampler-rate points an analog series of n
// simulation samples produces.
func (s Sampler) OutputLen(n int) int {
	off := s.Phase()
	if off >= n {
		return 0
	}
	return (n - off + s.Oversample - 1) / s.Oversample
}
