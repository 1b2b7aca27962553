// Package tensor provides the dense float64 linear algebra used by the
// functional (bit-exact) layer of the reproduction: the reference
// transformer and its TP/SP/Shift parallel forwards.
//
// Matrices are row-major and sized for correctness tests (hundreds of
// rows); the performance story of the paper is carried by the analytic
// cost model in internal/perf, not by this package. What the package
// does own is its allocations: every op that returns a fresh matrix
// (MatMul, SliceCols, Clone) has an Into form (MatMulInto, SliceInto,
// CopyInto) that writes into a caller's matrix instead, reshaping it
// and reusing its storage when the capacity suffices (Resize). The
// fresh form is New plus the same kernel, so both forms give the same
// bits, and a caller that keeps its destinations across calls
// allocates nothing in steady state. MatMulColsInto exists only as an
// Into form, and MatMulBlock writes a product into a block of a larger
// matrix without reshaping it. A destination must not share storage
// with an operand.
//
// The products (MatMul, MatMulInto, MatMulColsInto, MatMulBlock) run
// one kernel, and it keeps one summation order: each output element
// starts at zero and adds the products of the nonzero entries of its
// row of a in ascending inner index. The kernel takes rows of a in
// pairs and inner indices four at a time, so one load of a row of b
// serves two rows of the output, but no element's additions change
// order. So MatMulColsInto(out, a, b, lo, hi) equals MatMul(a,
// SliceCols(b, lo, hi)) bit for bit, each column range of a product of
// side-by-side panels equals the product of that panel alone, and
// callers can read an operand in place (a column range, or a ViewRows
// view) instead of copying it without changing any output bit.
//
// The kernel's two inner loops, which add four inner indices' products
// into two rows of the output or into one, run as AVX assembly on an
// amd64 host whose CPU has AVX and whose OS saves its registers (CPUID
// and XGETBV, checked once at start-up), and as Go loops everywhere
// else (kernel.go). The assembly takes four output columns at a time,
// one per vector lane, and the last len % 4 one by one. Each product
// has its own multiply and each sum its own add, in the Go expression's
// left-to-right order, with no fused multiply-add, so every column is
// rounded exactly as the Go loop rounds it on amd64 and both paths give
// the same bits. (On arm64 and some other architectures the Go compiler
// fuses x*y + z into one instruction, so there the Go loops can round
// differently from amd64.) The zero skip and the pairing of rows stay in
// Go.
package tensor

import (
	"fmt"
	"math"
	"slices"
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
func (m *Matrix) Clone() *Matrix { return CopyInto(New(m.Rows, m.Cols), m) }

// Resize makes m a zeroed rows x cols matrix and returns m. It reuses
// m.Data when its capacity suffices and otherwise grows it as append
// does, so a destination that grows a little per call (a score matrix
// over a lengthening context) reallocates only now and then.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = slices.Grow(m.Data[:0], n)
	}
	m.Data = m.Data[:n]
	clear(m.Data)
	m.Rows, m.Cols = rows, cols
	return m
}

// CopyInto makes dst a copy of src and returns dst.
func CopyInto(dst, src *Matrix) *Matrix {
	dst.Resize(src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}

// MatMul returns a*b. Panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	checkMatMul(a, b, 0, b.Cols)
	out := New(a.Rows, b.Cols)
	matmul(out, 0, 0, a, b, 0, b.Cols)
	return out
}

// MatMulInto sets out to a*b and returns out (see Resize).
func MatMulInto(out, a, b *Matrix) *Matrix {
	checkMatMul(a, b, 0, b.Cols)
	matmul(out.Resize(a.Rows, b.Cols), 0, 0, a, b, 0, b.Cols)
	return out
}

// MatMulColsInto sets out to a*b[:, lo:hi] and returns out, reading the
// column range of b in place instead of copying it out first. Panics on
// shape mismatch.
func MatMulColsInto(out, a, b *Matrix, lo, hi int) *Matrix {
	checkMatMul(a, b, lo, hi)
	matmul(out.Resize(a.Rows, hi-lo), 0, 0, a, b, lo, hi-lo)
	return out
}

// MatMulBlock sets the a.Rows x b.Cols block of out whose top-left
// element is (row, col) to a*b, leaving the rest of out as it is: a
// product lands in place inside a larger matrix, such as one head's
// columns of an attention output.
func MatMulBlock(out *Matrix, row, col int, a, b *Matrix) {
	checkMatMul(a, b, 0, b.Cols)
	if row < 0 || col < 0 || row+a.Rows > out.Rows || col+b.Cols > out.Cols {
		panic(fmt.Sprintf("tensor: %dx%d block at (%d,%d) of %dx%d", a.Rows, b.Cols, row, col, out.Rows, out.Cols))
	}
	for i := row; i < row+a.Rows; i++ {
		clear(out.Data[i*out.Cols+col : i*out.Cols+col+b.Cols])
	}
	matmul(out, row, col, a, b, 0, b.Cols)
}

func checkMatMul(a, b *Matrix, lo, hi int) {
	if lo < 0 || hi > b.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: col range [%d:%d) of %d cols", lo, hi, b.Cols))
	}
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, hi-lo))
	}
}

// matmul adds a*b[:, lo:lo+n] into the a.Rows x n block of out at (row,
// col). Rows of a are taken in pairs, so each row of b is loaded once
// for two rows of out: four inner indices run at a time (axpy4x2) while
// all eight entries of a they read are nonzero, and otherwise each row
// adds its nonzero entries of those four one index at a time. An odd
// last row goes through matmulRow. Every output element still sees
// ((o + a0*b0) + a1*b1) + ... over the nonzero entries of its row of a
// in ascending inner index, exactly as the one-at-a-time loop adds them.
func matmul(out *Matrix, row, col int, a, b *Matrix, lo, n int) {
	bc, kn := colRange{b.Data, b.Cols, lo, n}, a.Cols
	orow := func(i int) []float64 {
		off := (row+i)*out.Cols + col
		return out.Data[off : off+n]
	}
	i := 0
	for ; i+1 < a.Rows; i += 2 {
		ar0, ar1 := a.Data[i*kn:(i+1)*kn], a.Data[(i+1)*kn:(i+2)*kn]
		o0, o1 := orow(i), orow(i+1)
		k := 0
		for ; k+4 <= kn; k += 4 {
			x0, x1, x2, x3 := ar0[k], ar0[k+1], ar0[k+2], ar0[k+3]
			y0, y1, y2, y3 := ar1[k], ar1[k+1], ar1[k+2], ar1[k+3]
			if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 || y0 == 0 || y1 == 0 || y2 == 0 || y3 == 0 {
				bc.axpyNonzero(o0, ar0[k:k+4], k)
				bc.axpyNonzero(o1, ar1[k:k+4], k)
				continue
			}
			axpy4x2(o0, o1, ar0[k:k+4], ar1[k:k+4], bc.row(k), bc.row(k+1), bc.row(k+2), bc.row(k+3))
		}
		bc.axpyNonzero(o0, ar0[k:], k)
		bc.axpyNonzero(o1, ar1[k:], k)
	}
	if i < a.Rows {
		bc.matmulRow(orow(i), a.Data[i*kn:(i+1)*kn])
	}
}

// colRange is columns [lo, lo+n) of a row-major matrix's data with
// stride columns: the operand b of a product, read in place.
type colRange struct {
	data          []float64
	stride, lo, n int
}

// row returns the range's part of row k.
func (c colRange) row(k int) []float64 {
	off := k*c.stride + c.lo
	return c.data[off : off+c.n]
}

// axpyNonzero adds as[q]*row(k0+q) into o for each nonzero as[q], in
// ascending q.
func (c colRange) axpyNonzero(o, as []float64, k0 int) {
	for q, av := range as {
		if av != 0 {
			axpy(o, av, c.row(k0+q))
		}
	}
}

// matmulRow adds arow*c into orow. Zero entries of arow are skipped and
// the rest are taken four at a time (axpy4), in ascending inner index.
func (c colRange) matmulRow(orow, arow []float64) {
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
		axpy4(orow, av[:], c.row(ak[0]), c.row(ak[1]), c.row(ak[2]), c.row(ak[3]))
	}
	for q := 0; q < m; q++ {
		axpy(orow, av[q], c.row(ak[q]))
	}
}

// axpy adds av*b into o.
func axpy(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += av * bv
	}
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

// SliceCols returns a copy of columns [lo, hi) of m.
func SliceCols(m *Matrix, lo, hi int) *Matrix {
	return SliceInto(New(m.Rows, hi-lo), m, 0, m.Rows, lo, hi)
}

// SliceInto makes out a copy of the block of m in rows [r0, r1) and
// columns [c0, c1), and returns out.
func SliceInto(out, m *Matrix, r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || r0 > r1 || c0 < 0 || c1 > m.Cols || c0 > c1 {
		panic(fmt.Sprintf("tensor: block [%d:%d)x[%d:%d) of %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out.Resize(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Data[(i-r0)*out.Cols:(i-r0+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
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
	return SliceInto(New(hi-lo, m.Cols), m, lo, hi, 0, m.Cols)
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
