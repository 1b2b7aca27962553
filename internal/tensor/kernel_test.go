package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// kernelCase is one call of each inner kernel: four rows of b, the
// scalars x and y, and a 3-row output matrix whose rows hold o0, o1 (the
// two-row kernel) and o (the one-row kernel) as n columns at column off.
// The columns around them are guards no kernel may write, as the rest of
// a matrix is around the block MatMulBlock writes.
type kernelCase struct {
	b      [4][]float64
	x, y   []float64
	out    *Matrix
	n, off int
}

// newKernelCase fills a case of n output columns at column off with the
// values next returns.
func newKernelCase(n, off int, next func() float64) kernelCase {
	fill := func(s []float64) []float64 {
		for i := range s {
			s[i] = next()
		}
		return s
	}
	c := kernelCase{x: fill(make([]float64, 4)), y: fill(make([]float64, 4)), n: n, off: off}
	for q := range c.b {
		c.b[q] = fill(make([]float64, n))
	}
	c.out = New(3, off+n+3)
	fill(c.out.Data)
	return c
}

// run applies the two-row kernel to rows 0 and 1 and the one-row kernel
// to row 2 of a copy of c.out, and returns the copy.
func (c kernelCase) run(two func(o0, o1, x, y, b0, b1, b2, b3 []float64), one func(o, a, b0, b1, b2, b3 []float64)) *Matrix {
	out := c.out.Clone()
	o := func(i int) []float64 { return out.Row(i)[c.off : c.off+c.n] }
	two(o(0), o(1), c.x, c.y, c.b[0], c.b[1], c.b[2], c.b[3])
	one(o(2), c.y, c.b[3], c.b[1], c.b[2], c.b[0])
	return out
}

// sameFloats returns "" when a and b hold the same bits, counting any
// two NaNs as the same, and otherwise the first difference. Which NaN
// payload a sum of two NaNs keeps depends on operand order, and the Go
// compiler orders the operands of a commutative + or * as it likes, so
// the Go loops fix no payload to compare against; every other bit, the
// NaN-ness of each element included, must match.
func sameFloats(a, b *Matrix) string {
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(v != v && w != w) {
			return fmt.Sprintf("element (%d,%d): %v (%#016x) != %v (%#016x)",
				i/a.Cols, i%a.Cols, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
	return ""
}

// FuzzMatMulKernel runs both inner kernels as matmul calls them (the AVX
// assembly on an amd64 host with AVX, otherwise the Go loops) against
// the Go loops on n output columns whose operands, guards included, are
// the float64s the operand bytes spell, little-endian and cycled: any
// bit pattern, so NaNs, infinities, subnormals and values near overflow
// all occur. The seeded corpus in testdata/fuzz/FuzzMatMulKernel also
// runs under go test.
func FuzzMatMulKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, ops []byte) {
		vals := make([]float64, len(ops)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(ops[8*i:]))
		}
		k := 0
		next := func() float64 {
			if len(vals) == 0 {
				return 0
			}
			k++
			return vals[(k-1)%len(vals)]
		}
		c := newKernelCase(int(n), int(n)%3, next)
		if d := sameFloats(c.run(axpy4x2, axpy4), c.run(axpy4x2Go, axpy4Go)); d != "" {
			t.Fatalf("n=%d: kernels differ from the Go loops at %s", n, d)
		}
	})
}
