package core

import (
	"fmt"
	"sync"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
)

const (
	// filterTaps is the tap count of the video low-pass and the IF
	// band-pass.
	filterTaps = 63
	// ifEdge is either filter's half-width. The video filter zero-pads the
	// IF series, so a grid output within ifEdge samples of either end reads
	// IF samples that do not exist, and takes the two-stage path.
	ifEdge = filterTaps / 2
	// ifSeg is the IF segment at each end that those edge outputs read.
	ifSeg = 2 * ifEdge
)

// frontEndKey is everything a front-end design depends on. ifHz is 0 in
// ModeVanilla, which has no IF chain.
type frontEndKey struct {
	fsSim, cutoff, ifHz float64
	phaseErr, gainDB    float64
}

// frontEnd is one front-end filter design: the post-detection video
// low-pass and, in the cyclic-frequency-shifting modes, the linear chain
// after the squarer — IF band-pass, IF gain, down-mix, makeup gain, video
// low-pass (Figure 9). It is immutable once designed, and every
// Demodulator with the same design shares it (see frontEndFor).
type frontEnd struct {
	lpf *dsp.FIR // post-detection video filter

	// The IF chain; bpf is nil in ModeVanilla. The MCU clock runs at
	// exactly fsSim/8, and squaring the mixed signal lands the IF at twice
	// the clock, fsSim/4, so each clock tone repeats every 8 or 4 samples.
	bpf    *dsp.FIR   // IF band-pass, run only for edge outputs
	up     [8]float64 // input clock, fsSim/8
	down   [4]float64 // output clock, fsSim/4, off by ClockPhaseError
	ifGain float64    // IFAmp's linear gain
	makeup float64    // cos^2 halves the signal at each mixer; restore the vanilla scale

	// phases fuse the chain after the squarer into one linear, periodically
	// time-varying filter of 2*filterTaps-1 taps: phases[r] produces the
	// video output at every simulation index ≡ r (mod 4).
	phases [4]*dsp.FIR
}

// frontEnds memoizes designs across New and Clone. A design is a pure
// function of its key and immutable, so sharing one is safe, and composing
// the phase filters costs more than the rest of New. The memo is cleared
// when full, which bounds it under sweeps and fuzzing that make a new key
// per ClockPhaseError value.
var frontEnds = struct {
	sync.Mutex
	m map[frontEndKey]*frontEnd
}{m: map[frontEndKey]*frontEnd{}}

const maxFrontEnds = 64

// frontEndFor returns the shared design for k, designing it on first use.
func frontEndFor(k frontEndKey) (*frontEnd, error) {
	frontEnds.Lock()
	defer frontEnds.Unlock()
	if fe, ok := frontEnds.m[k]; ok {
		return fe, nil
	}
	fe, err := designFrontEnd(k)
	if err != nil {
		return nil, err
	}
	if len(frontEnds.m) >= maxFrontEnds {
		clear(frontEnds.m)
	}
	frontEnds.m[k] = fe
	return fe, nil
}

func designFrontEnd(k frontEndKey) (*frontEnd, error) {
	lpf, err := dsp.NewLowPass(k.cutoff, k.fsSim, filterTaps, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("core: video filter: %w", err)
	}
	fe := &frontEnd{lpf: lpf}
	if k.ifHz == 0 {
		return fe, nil
	}
	fe.bpf, err = dsp.NewBandPass(k.ifHz-k.cutoff, k.ifHz+k.cutoff, k.fsSim, filterTaps, dsp.Hamming)
	if err != nil {
		return nil, fmt.Errorf("core: IF filter: %w", err)
	}
	copy(fe.up[:], analog.ClockTable(len(fe.up), 0))
	copy(fe.down[:], analog.ClockTable(len(fe.down), k.phaseErr))
	fe.ifGain = analog.IFAmplifier{GainDB: k.gainDB}.Gain()
	fe.makeup = 4 / fe.ifGain

	// Video output m sums hl[j] * IF[m+ifEdge-j], and IF sample i is
	// hb * z around i, scaled by ifGain*down[i mod 4]*makeup. Collecting the
	// squarer samples z[m+2*ifEdge-t] gives tap t = j+k; the down-mix phase
	// depends on m only through m mod 4.
	hl, hb := lpf.Taps(), fe.bpf.Taps()
	g := fe.ifGain * fe.makeup
	for r := range fe.phases {
		h := make([]float64, len(hl)+len(hb)-1)
		for j, l := range hl {
			w := g * l * fe.down[(r+ifEdge-j)&3] // &3 is mod 4, also below 0
			for k, b := range hb {
				h[j+k] += w * b
			}
		}
		fe.phases[r] = dsp.NewFIR(h)
	}
	return fe, nil
}

// ifSample is IF sample i of the two-stage chain for squarer output z:
// band-pass, IF gain, down-mix and makeup gain, in that order.
func (fe *frontEnd) ifSample(z []float64, i int) float64 {
	return fe.bpf.At(z, i) * fe.ifGain * fe.down[i&3] * fe.makeup
}

// sample reads the fused IF chain's output for squarer output z on the
// grid of a sampler decimating by decim: dst[m] is the video output at
// simulation index off + m*decim, off = decim/2. Each output comes from
// the phase filter of its index mod 4. A grid whose decim is a multiple of
// 4 lands on one phase; any other grid cycles through two or four, and
// each strided sub-grid is filtered into tmp, then interleaved into dst.
// Both are grown as needed and returned; neither may overlap z.
func (fe *frontEnd) sample(dst, z, tmp []float64, decim int) ([]float64, []float64) {
	off := analog.Sampler{Oversample: decim}.Phase()
	// The grid's phase mod 4 repeats every p outputs.
	p := 4
	switch {
	case decim%4 == 0:
		p = 1
	case decim%2 == 0:
		p = 2
	}
	if p == 1 {
		dst = fe.phases[off&3].ApplyDecimated(dst, z, decim, off)
	} else {
		count := 0
		if off < len(z) {
			count = (len(z) - off + decim - 1) / decim
		}
		if cap(dst) < count {
			dst = make([]float64, count)
		}
		dst = dst[:count]
		for k := 0; k < p && k < count; k++ {
			i0 := off + k*decim
			tmp = fe.phases[i0&3].ApplyDecimated(tmp, z, p*decim, i0)
			for q, v := range tmp {
				dst[k+q*p] = v
			}
		}
	}
	fe.patchEdges(dst, z, decim, off)
	return dst, tmp
}

// patchEdges recomputes the two-stage way the grid outputs dst[m] (at
// simulation index off + m*decim) within ifEdge of either end of z. There
// the video filter zero-pads the IF series, where the fused filter would
// zero-pad z instead. Each end's IF segment is computed once into a stack
// array, so the patch allocates nothing and matches the two-stage chain
// bit for bit.
func (fe *frontEnd) patchEdges(dst, z []float64, decim, off int) {
	n := len(z)
	h := min(n, ifSeg)
	var seg [ifSeg]float64
	m := 0
	if len(dst) > 0 && off < ifEdge {
		for i := range h {
			seg[i] = fe.ifSample(z, i)
		}
		for ; m < len(dst) && off+m*decim < ifEdge; m++ {
			dst[m] = fe.lpf.At(seg[:h], off+m*decim)
		}
	}
	last := len(dst) - 1
	if last < m || off+last*decim < n-ifEdge {
		return
	}
	base := n - h
	for i := range h {
		seg[i] = fe.ifSample(z, base+i)
	}
	for ; last >= m && off+last*decim >= n-ifEdge; last-- {
		dst[last] = fe.lpf.At(seg[:h], off+last*decim-base)
	}
}
