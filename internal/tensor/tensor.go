// Package tensor provides the dense float64 linear algebra used by the
// functional (bit-exact) layer of the reproduction: the reference
// transformer and its TP/SP/Shift parallel forwards.
//
// The package is deliberately small and allocation-honest. Matrices are
// row-major and sized for correctness tests (hundreds of rows), not for
// performance; the performance story of the paper is carried by the
// analytic cost model in internal/perf, not by this package.
//
// Every product kernel (MatMul, MatMulCols, MatMulT) keeps MatMul's
// summation order: each output element starts at zero and adds its
// products in ascending inner index, skipping zero entries of a. So
// MatMulCols(a, b, lo, hi) equals MatMul(a, SliceCols(b, lo, hi)) and
// MatMulT(a, b) equals MatMul(a, Transpose(b)) bit for bit, and callers
// can read an operand in place (a column range, or a ViewRows view)
// instead of copying it without changing any output bit.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
// The zero value is an empty (0x0) matrix ready to use.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatMul returns a*b. Panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matmul(out, a, b, 0)
	return out
}

// MatMulCols returns a*b[:, lo:hi], reading the column range of b in
// place instead of copying it out first. Panics on shape mismatch.
func MatMulCols(a, b *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > b.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: col range [%d:%d) of %d cols", lo, hi, b.Cols))
	}
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, hi-lo))
	}
	out := New(a.Rows, hi-lo)
	matmul(out, a, b, lo)
	return out
}

// matmul adds a*b[:, lo:lo+out.Cols] into out. Zero entries of a are
// skipped and the rest are taken four at a time, so every output element
// still sees ((o + a0*b0) + a1*b1) + ... over the nonzero entries in
// ascending inner index, exactly as the one-at-a-time loop adds them.
func matmul(out, a, b *Matrix, lo int) {
	n, stride := out.Cols, b.Cols
	brow := func(k int) []float64 { return b.Data[k*stride+lo : k*stride+lo+n] }
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		var av [4]float64
		var ak [4]int
		m := 0
		for k, x := range arow {
			if x == 0 {
				continue
			}
			av[m], ak[m] = x, k
			if m++; m < 4 {
				continue
			}
			m = 0
			a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
			b0, b1, b2, b3 := brow(ak[0]), brow(ak[1]), brow(ak[2]), brow(ak[3])
			b0, b1, b2, b3 = b0[:len(orow)], b1[:len(orow)], b2[:len(orow)], b3[:len(orow)]
			for j, o := range orow {
				orow[j] = o + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for q := 0; q < m; q++ {
			axpy(orow, av[q], brow(ak[q]))
		}
	}
}

// axpy adds av*b into o.
func axpy(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += av * bv
	}
}

// MatMulT returns a*bᵀ without materializing the transpose: element
// (i, j) is the dot product of row i of a and row j of b. Panics on
// shape mismatch.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d * (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := range orow {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			brow = brow[:len(arow)]
			s := 0.0
			for k, av := range arow {
				if av != 0 {
					s += av * brow[k]
				}
			}
			orow[j] = s
		}
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: add shape mismatch %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: add shape mismatch %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Transpose returns the transpose of m.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// SliceCols returns a copy of columns [lo, hi) of m.
func SliceCols(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: col slice [%d:%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Data[i*m.Cols+lo:i*m.Cols+hi])
	}
	return out
}

// ViewRows returns rows [lo, hi) of m as a matrix sharing m's storage:
// writes through either are visible in both.
func ViewRows(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row view [%d:%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]}
}

// SliceRows returns a copy of rows [lo, hi) of m.
func SliceRows(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d:%d) of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// ConcatCols horizontally concatenates the given matrices.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows, cols := ms[0].Rows, 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: concat cols row mismatch %d != %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		orow := out.Row(i)
		for _, m := range ms {
			copy(orow[off:off+m.Cols], m.Row(i))
			off += m.Cols
		}
	}
	return out
}

// ConcatRows vertically concatenates the given matrices.
func ConcatRows(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows, cols := 0, ms[0].Cols
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("tensor: concat rows col mismatch %d != %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// RMSNormRows normalizes each row by its root-mean-square in place,
// matching the pre-norm used by Llama-family models (unit gain).
func RMSNormRows(m *Matrix, eps float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		ss := 0.0
		for _, v := range row {
			ss += v * v
		}
		inv := 1.0 / math.Sqrt(ss/float64(len(row))+eps)
		for j := range row {
			row[j] *= inv
		}
	}
}

// SiLURows applies x*sigmoid(x) elementwise in place.
func SiLURows(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = v / (1 + math.Exp(-v))
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// a and b. Panics on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: diff shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	max := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Equal reports whether a and b have the same shape and all elements
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}
