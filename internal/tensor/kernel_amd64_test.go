package tensor

import (
	"math"
	"testing"
)

// The AVX kernels must give the Go loops' bits for every output width
// from 0 to 70 (so every vector-tail length runs), on random operands
// mixed with ±0, ±Inf, NaN, subnormals and values near overflow, with
// the outputs at a column offset inside a larger matrix whose other
// elements they must leave alone.
func TestAVXKernelsMatchGoLoopsExactly(t *testing.T) {
	if !useAVX {
		t.Skip("the host has no AVX, so the kernel runs the Go loops")
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -2.5e-310, 0x1p-1022, // subnormals and the least normal
		math.MaxFloat64, -math.MaxFloat64, 0x1.8p1023, -1e308, // near overflow
	}
	rng := NewRNG(40)
	next := func() float64 {
		if rng.Intn(5) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.Norm() * math.Ldexp(1, rng.Intn(41)-20)
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			c := newKernelCase(n, trial%3, next)
			if d := sameFloats(c.run(axpy4x2AVX, axpy4AVX), c.run(axpy4x2Go, axpy4Go)); d != "" {
				t.Fatalf("n=%d trial %d: AVX kernels differ from the Go loops at %s", n, trial, d)
			}
		}
	}
}
