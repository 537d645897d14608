package analog

import "saiyan/internal/dsp"

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

// Phase is the index of the first sample point. Sample points sit mid-way
// through each oversampling window, modeling a sample-and-hold triggered at
// the window center.
func (s Sampler) Phase() int { return s.Oversample / 2 }

// SampleFiltered reads the output of filter f over x on the sampler grid —
// every Oversample-th output starting at Phase — computing only the filter
// outputs the sampler reads. dst must not overlap x.
func (s Sampler) SampleFiltered(dst, x []float64, f *dsp.FIR) []float64 {
	return f.ApplyDecimated(dst, x, s.Oversample, s.Phase())
}
