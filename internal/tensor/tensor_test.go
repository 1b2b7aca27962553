package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("not zeroed: %v", v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows layout wrong: %+v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged rows")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 0) {
		t.Fatalf("MatMul = %+v, want %+v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := rng.RandMatrix(5, 5, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(MatMul(a, id), a, 1e-12) {
		t.Fatal("a*I != a")
	}
	if !Equal(MatMul(id, a), a, 1e-12) {
		t.Fatal("I*a != a")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulAssociativity(t *testing.T) {
	rng := NewRNG(2)
	a := rng.RandMatrix(4, 6, 1)
	b := rng.RandMatrix(6, 3, 1)
	c := rng.RandMatrix(3, 5, 1)
	left := MatMul(MatMul(a, b), c)
	right := MatMul(a, MatMul(b, c))
	if !Equal(left, right, 1e-9) {
		t.Fatalf("(ab)c != a(bc), maxdiff=%g", MaxAbsDiff(left, right))
	}
}

func TestAdd(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}})
	if !Equal(Add(a, b), FromRows([][]float64{{4, 6}}), 0) {
		t.Fatal("Add wrong")
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	AddInPlace(a, FromRows([][]float64{{10, 20}}))
	if !Equal(a, FromRows([][]float64{{11, 22}}), 0) {
		t.Fatalf("AddInPlace = %+v", a)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(3)
	a := rng.RandMatrix(3, 7, 1)
	if !Equal(Transpose(Transpose(a)), a, 0) {
		t.Fatal("transpose not an involution")
	}
	tr := Transpose(a)
	if tr.Rows != 7 || tr.Cols != 3 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != a.At(1, 2) {
		t.Fatal("transpose element wrong")
	}
}

func TestSliceConcatColsRoundTrip(t *testing.T) {
	rng := NewRNG(4)
	a := rng.RandMatrix(4, 9, 1)
	parts := []*Matrix{SliceCols(a, 0, 3), SliceCols(a, 3, 5), SliceCols(a, 5, 9)}
	if !Equal(ConcatCols(parts...), a, 0) {
		t.Fatal("col slice/concat not inverse")
	}
}

func TestSliceConcatRowsRoundTrip(t *testing.T) {
	rng := NewRNG(5)
	a := rng.RandMatrix(8, 3, 1)
	parts := []*Matrix{SliceRows(a, 0, 2), SliceRows(a, 2, 5), SliceRows(a, 5, 8)}
	if !Equal(ConcatRows(parts...), a, 0) {
		t.Fatal("row slice/concat not inverse")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 1, 1}, {1000, 1000, 1000}, {-1000, 0, 1000}})
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("row %d has invalid prob %v", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Uniform row stays uniform.
	for _, v := range m.Row(0) {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform row broken: %v", v)
		}
	}
	// Dominant logit takes (almost) all mass.
	if m.At(2, 2) < 0.999 {
		t.Fatalf("dominant logit prob %v", m.At(2, 2))
	}
}

func TestRMSNormRows(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	RMSNormRows(m, 0)
	// rms of (3,4) is sqrt(12.5); normalized rms should be 1.
	rms := math.Sqrt((m.At(0, 0)*m.At(0, 0) + m.At(0, 1)*m.At(0, 1)) / 2)
	if math.Abs(rms-1) > 1e-12 {
		t.Fatalf("rms after norm = %v", rms)
	}
}

func TestSiLURows(t *testing.T) {
	m := FromRows([][]float64{{0, 100, -100}})
	SiLURows(m)
	if m.At(0, 0) != 0 {
		t.Fatalf("silu(0) = %v", m.At(0, 0))
	}
	if math.Abs(m.At(0, 1)-100) > 1e-6 {
		t.Fatalf("silu(100) = %v", m.At(0, 1))
	}
	if math.Abs(m.At(0, 2)) > 1e-6 {
		t.Fatalf("silu(-100) = %v", m.At(0, 2))
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1}})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(8)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("norm variance = %v", variance)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn coverage %d/5", len(seen))
	}
}

// Property: distributing a matmul over column blocks of B equals the full
// matmul — the identity TP column parallelism relies on.
func TestQuickMatMulColumnBlocked(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		rng := NewRNG(seed)
		n, k, m := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(8)
		a := rng.RandMatrix(n, k, 1)
		b := rng.RandMatrix(k, m, 1)
		cut := 1 + int(split)%(m-1)
		full := MatMul(a, b)
		blocked := ConcatCols(MatMul(a, SliceCols(b, 0, cut)), MatMul(a, SliceCols(b, cut, m)))
		return Equal(full, blocked, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a row-split of A times a column-split... more precisely the
// all-reduce identity of TP row parallelism: A*B = sum_i A[:,i-block] * B[i-block,:].
func TestQuickMatMulRowBlockedReduce(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		rng := NewRNG(seed)
		n, k, m := 2+rng.Intn(6), 3+rng.Intn(6), 2+rng.Intn(6)
		a := rng.RandMatrix(n, k, 1)
		b := rng.RandMatrix(k, m, 1)
		cut := 1 + int(split)%(k-1)
		full := MatMul(a, b)
		partial := Add(
			MatMul(SliceCols(a, 0, cut), SliceRows(b, 0, cut)),
			MatMul(SliceCols(a, cut, k), SliceRows(b, cut, k)),
		)
		return Equal(full, partial, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequence-split of the activations (SP) commutes with matmul:
// rows can be computed independently and concatenated.
func TestQuickMatMulRowSplitOfActivations(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		rng := NewRNG(seed)
		n, k, m := 3+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := rng.RandMatrix(n, k, 1)
		b := rng.RandMatrix(k, m, 1)
		cut := 1 + int(split)%(n-1)
		full := MatMul(a, b)
		split2 := ConcatRows(MatMul(SliceRows(a, 0, cut), b), MatMul(SliceRows(a, cut, n), b))
		return Equal(full, split2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sparseMatrix fills a rows x cols matrix with about a third zeros and
// the rest signed normals, so the kernels' zero skip and the remainder of
// their unrolled loop both run.
func sparseMatrix(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Intn(3) != 0 {
			m.Data[i] = rng.Norm()
		}
	}
	return m
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements: the kernels keep MatMul's summation order exactly.
func sameBits(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestMatMulColsEqualsMatMulOfSliceExactly(t *testing.T) {
	rng := NewRNG(5)
	for k := 1; k <= 9; k++ {
		for trial := 0; trial < 4; trial++ {
			a := sparseMatrix(rng, 1+rng.Intn(4), k)
			b := sparseMatrix(rng, k, 1+rng.Intn(7))
			for lo := 0; lo <= b.Cols; lo++ {
				for hi := lo; hi <= b.Cols; hi++ {
					got, want := MatMulCols(a, b, lo, hi), MatMul(a, SliceCols(b, lo, hi))
					if !Equal(got, want, 0) || !sameBits(got, want) {
						t.Fatalf("k=%d [%d:%d): MatMulCols %v != MatMul(SliceCols) %v", k, lo, hi, got.Data, want.Data)
					}
				}
			}
		}
	}
}

func TestMatMulTEqualsMatMulOfTransposeExactly(t *testing.T) {
	rng := NewRNG(6)
	for k := 1; k <= 9; k++ {
		for trial := 0; trial < 8; trial++ {
			a := sparseMatrix(rng, 1+rng.Intn(4), k)
			b := sparseMatrix(rng, 1+rng.Intn(7), k)
			got, want := MatMulT(a, b), MatMul(a, Transpose(b))
			if !Equal(got, want, 0) || !sameBits(got, want) {
				t.Fatalf("k=%d: MatMulT %v != MatMul(Transpose) %v", k, got.Data, want.Data)
			}
		}
	}
}

// The unrolled MatMul must add in the plain one-k-at-a-time order.
func TestMatMulMatchesNaiveOrderExactly(t *testing.T) {
	rng := NewRNG(8)
	for k := 1; k <= 9; k++ {
		a := sparseMatrix(rng, 3, k)
		b := sparseMatrix(rng, k, 5)
		want := New(a.Rows, b.Cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				s := 0.0
				for kk := 0; kk < k; kk++ {
					if av := a.At(i, kk); av != 0 {
						s += av * b.At(kk, j)
					}
				}
				want.Set(i, j, s)
			}
		}
		if got := MatMul(a, b); !sameBits(got, want) {
			t.Fatalf("k=%d: MatMul %v != naive %v", k, got.Data, want.Data)
		}
	}
}

func TestMatMulColsAndTShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"cols range":   func() { MatMulCols(New(2, 3), New(3, 4), 2, 5) },
		"cols inverse": func() { MatMulCols(New(2, 3), New(3, 4), 3, 2) },
		"cols inner":   func() { MatMulCols(New(2, 3), New(2, 4), 0, 4) },
		"T inner":      func() { MatMulT(New(2, 3), New(4, 2)) },
	} {
		func() {
			defer expectPanic(t, name)
			f()
		}()
	}
}

func TestViewRowsAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := ViewRows(m, 1, 3)
	if v.Rows != 2 || v.Cols != 2 || v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("view = %+v", v)
	}
	v.Set(0, 1, 40)
	if m.At(1, 1) != 40 {
		t.Fatal("write through the view did not reach the matrix")
	}
	m.Set(2, 0, 50)
	if v.At(1, 0) != 50 {
		t.Fatal("write to the matrix is not visible in the view")
	}
	if e := ViewRows(m, 3, 3); e.Rows != 0 || len(e.Data) != 0 {
		t.Fatalf("empty view = %+v", e)
	}
	defer expectPanic(t, "row view out of range")
	ViewRows(m, 2, 4)
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.5, 2}})
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1e9) {
		t.Fatal("Equal ignored shape")
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
