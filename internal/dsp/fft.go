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
	fftInPlace(x, false)
}

// IFFT computes the in-place inverse FFT of x, including the 1/N scaling so
// that IFFT(FFT(x)) == x. len(x) must be a power of two.
func IFFT(x []complex128) {
	fftInPlace(x, true)
	n := float64(len(x))
	for i := range x {
		x[i] /= complex(n, 0)
	}
}

func fftInPlace(x []complex128, inverse bool) {
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
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
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

// PowerSpectrum returns |X[k]|^2 / N for the FFT of the real series x,
// zero-padded to the next power of two. The result has the full N bins
// (two-sided spectrum).
func PowerSpectrum(x []float64) []float64 {
	n := NextPow2(len(x))
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	ps := make([]float64, n)
	inv := 1 / float64(n)
	for i, v := range buf {
		re, im := real(v), imag(v)
		ps[i] = (re*re + im*im) * inv
	}
	return ps
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
