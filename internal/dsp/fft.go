package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two; FFT panics otherwise
// because a non-power-of-two length is a programming error in this codebase
// (callers pad with NextPow2).
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson-Lanczos butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// ArgmaxAbs returns the index of the element of x with the largest magnitude
// and that magnitude. It returns (-1, 0) for an empty slice.
func ArgmaxAbs(x []complex128) (int, float64) {
	best, bestV := -1, 0.0
	for i, v := range x {
		m := real(v)*real(v) + imag(v)*imag(v)
		if best == -1 || m > bestV {
			best, bestV = i, m
		}
	}
	if best == -1 {
		return -1, 0
	}
	return best, math.Sqrt(bestV)
}
