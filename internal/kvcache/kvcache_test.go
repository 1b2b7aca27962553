package kvcache

import (
	"testing"

	"repro/internal/tensor"
)

func row(dim int, base float64) []float64 {
	r := make([]float64, dim)
	for i := range r {
		r[i] = base + float64(i)
	}
	return r
}

func TestCacheAppendAndRead(t *testing.T) {
	c := NewCache(2, 3, 4)
	c.Append(7, 1, 2, row(4, 10), row(4, 20))
	c.Append(7, 1, 2, row(4, 30), row(4, 40))
	if c.Len(7) != 2 {
		t.Fatalf("len = %d", c.Len(7))
	}
	k := c.K(7, 1, 2)
	if k.Rows != 2 || k.Cols != 4 {
		t.Fatalf("k shape %dx%d", k.Rows, k.Cols)
	}
	if k.At(0, 0) != 10 || k.At(1, 3) != 33 {
		t.Fatalf("k contents wrong: %+v", k)
	}
	v := c.V(7, 1, 2)
	if v.At(1, 0) != 40 {
		t.Fatalf("v contents wrong: %+v", v)
	}
}

func TestCacheRowsCopied(t *testing.T) {
	c := NewCache(1, 1, 2)
	r := []float64{1, 2}
	c.Append(0, 0, 0, r, r)
	r[0] = 99
	if c.K(0, 0, 0).At(0, 0) != 1 {
		t.Fatal("cache aliased caller's row")
	}
}

func TestCacheUnknownSeqEmpty(t *testing.T) {
	c := NewCache(1, 1, 2)
	if c.Len(42) != 0 {
		t.Fatal("unknown seq should be empty")
	}
}

func TestCacheDrop(t *testing.T) {
	c := NewCache(1, 1, 2)
	c.Append(1, 0, 0, row(2, 0), row(2, 0))
	c.Append(2, 0, 0, row(2, 0), row(2, 0))
	c.Drop(1)
	seqs := c.Sequences()
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("sequences = %v", seqs)
	}
}

func TestCacheDimChecks(t *testing.T) {
	c := NewCache(2, 2, 3)
	for _, fn := range []func(){
		func() { c.Append(0, 5, 0, row(3, 0), row(3, 0)) }, // bad layer
		func() { c.Append(0, 0, 5, row(3, 0), row(3, 0)) }, // bad head
		func() { c.Append(0, 0, 0, row(2, 0), row(3, 0)) }, // bad dim
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCacheEqualAndFingerprint(t *testing.T) {
	build := func() *Cache {
		c := NewCache(2, 2, 3)
		for tok := 0; tok < 5; tok++ {
			for l := 0; l < 2; l++ {
				for h := 0; h < 2; h++ {
					c.Append(3, l, h, row(3, float64(tok*100+l*10+h)), row(3, float64(tok)))
				}
			}
		}
		return c
	}
	a, b := build(), build()
	if !Equal(a, b, 0) {
		t.Fatal("identical caches not equal")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical caches fingerprint differently")
	}
	b.Append(3, 0, 0, row(3, 999), row(3, 999))
	if Equal(a, b, 0) {
		t.Fatal("different caches compared equal")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different caches fingerprint identically")
	}
}

func TestFingerprintOrderSensitive(t *testing.T) {
	// Heads in a different order must produce a different fingerprint —
	// the paper's Figure 6 point: invariance requires the same ordering.
	a := NewCache(1, 2, 2)
	a.Append(0, 0, 0, []float64{1, 2}, []float64{0, 0})
	a.Append(0, 0, 1, []float64{3, 4}, []float64{0, 0})
	b := NewCache(1, 2, 2)
	b.Append(0, 0, 0, []float64{3, 4}, []float64{0, 0})
	b.Append(0, 0, 1, []float64{1, 2}, []float64{0, 0})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("head-permuted caches should fingerprint differently")
	}
	if Equal(a, b, 0) {
		t.Fatal("head-permuted caches should not be equal")
	}
}

func TestCacheEqualShapeMismatch(t *testing.T) {
	if Equal(NewCache(1, 1, 2), NewCache(1, 2, 2), 1) {
		t.Fatal("different-shape caches compared equal")
	}
}

func TestCacheKReturnsMatrixCopy(t *testing.T) {
	c := NewCache(1, 1, 2)
	c.Append(0, 0, 0, []float64{1, 2}, []float64{3, 4})
	k := c.K(0, 0, 0)
	k.Set(0, 0, 99)
	if c.K(0, 0, 0).At(0, 0) != 1 {
		t.Fatal("K exposed internal storage")
	}
	_ = tensor.New(1, 1) // keep tensor import honest
}

// Views alias the stored rows (no copy), a later Append is seen by the
// next Views call, and K/V keep returning independent copies.
func TestCacheViewsAliasWhileKVCopy(t *testing.T) {
	c := NewCache(1, 2, 2)
	c.Append(0, 0, 1, []float64{1, 2}, []float64{3, 4})
	k, v := c.Views(0, 0, 1)
	if k.Rows != 1 || k.At(0, 1) != 2 || v.At(0, 0) != 3 {
		t.Fatalf("views k=%+v v=%+v", k, v)
	}
	kCopy := c.K(0, 0, 1)
	c.Append(0, 0, 1, []float64{5, 6}, []float64{7, 8})
	k2, v2 := c.Views(0, 0, 1)
	if k2.Rows != 2 || k2.At(0, 0) != 1 || k2.At(1, 1) != 6 || v2.At(1, 0) != 7 {
		t.Fatalf("views after append k=%+v v=%+v", k2, v2)
	}
	if k.Rows != 1 || k.At(0, 1) != 2 {
		t.Fatalf("earlier view changed by the append: %+v", k)
	}
	if kCopy.Rows != 1 {
		t.Fatalf("K copy grew with the cache: %+v", kCopy)
	}
	k2.Set(1, 0, 50)
	if c.K(0, 0, 1).At(1, 0) != 50 {
		t.Fatal("Views copied the stored rows instead of aliasing them")
	}
	kCopy.Set(0, 0, 99)
	if k2.At(0, 0) != 1 {
		t.Fatal("K aliased the stored rows")
	}
	if ek, ev := c.Views(0, 0, 0); ek.Rows != 0 || ev.Rows != 0 {
		t.Fatalf("unwritten head views = %+v, %+v", ek, ev)
	}
}

// Reading a sequence the cache does not hold, through every read path,
// returns 0-row matrices and leaves the cache as it was: no new entry in
// Sequences, the same Fingerprint, still Equal to an untouched cache.
func TestCacheReadOfUnknownSeqChangesNothing(t *testing.T) {
	c, untouched := NewCache(2, 2, 3), NewCache(2, 2, 3)
	for _, cc := range []*Cache{c, untouched} {
		cc.Append(1, 1, 0, row(3, 1), row(3, 2))
	}
	fp := c.Fingerprint()
	var kh, vh tensor.Matrix
	c.ViewsInto(&kh, &vh, 99, 1, 1)
	ek, ev := c.Views(99, 0, 0)
	for name, m := range map[string]*tensor.Matrix{
		"K": c.K(99, 1, 0), "V": c.V(99, 0, 1), "Views k": ek, "Views v": ev, "ViewsInto k": &kh, "ViewsInto v": &vh,
	} {
		if m.Rows != 0 || m.Cols != 3 || len(m.Data) != 0 {
			t.Errorf("%s of unknown seq = %dx%d with %d elements, want 0x3 and none", name, m.Rows, m.Cols, len(m.Data))
		}
	}
	if seqs := c.Sequences(); len(seqs) != 1 || seqs[0] != 1 {
		t.Errorf("sequences after reads = %v, want [1]", seqs)
	}
	if got := c.Fingerprint(); got != fp {
		t.Errorf("fingerprint moved from %v to %v", fp, got)
	}
	if !Equal(c, untouched, 0) {
		t.Error("reads made the cache differ from an untouched one")
	}
}

// ViewsInto fills the caller's headers with the same aliasing views
// Views returns, and refills them on reuse.
func TestCacheViewsIntoFillsHeaders(t *testing.T) {
	c := NewCache(1, 1, 2)
	c.Append(0, 0, 0, []float64{1, 2}, []float64{3, 4})
	c.Append(1, 0, 0, []float64{5, 6}, []float64{7, 8})
	c.Append(1, 0, 0, []float64{9, 10}, []float64{11, 12})
	var k, v tensor.Matrix
	c.ViewsInto(&k, &v, 1, 0, 0)
	if k.Rows != 2 || k.At(1, 1) != 10 || v.At(0, 0) != 7 {
		t.Fatalf("ViewsInto k=%+v v=%+v", k, v)
	}
	c.ViewsInto(&k, &v, 0, 0, 0)
	if k.Rows != 1 || k.At(0, 0) != 1 || v.At(0, 1) != 4 {
		t.Fatalf("refilled ViewsInto k=%+v v=%+v", k, v)
	}
	k.Set(0, 0, 50)
	if c.K(0, 0, 0).At(0, 0) != 50 {
		t.Fatal("ViewsInto copied the stored rows instead of aliasing them")
	}
}

// Reserve on one (layer, head) creates the sequence as Append does,
// caches no rows, and makes room in the sequence's slab for every
// (layer, head): appending the reserved count of rows to each of them
// allocates nothing and caches exactly what an Append-only cache holds.
func TestCacheReserveThenAppend(t *testing.T) {
	const layers, heads, dim, n = 2, 2, 3, 4
	c, plain := NewCache(layers, heads, dim), NewCache(layers, heads, dim)
	c.Reserve(4, 1, 0, n)
	if seqs := c.Sequences(); len(seqs) != 1 || seqs[0] != 4 || c.Len(4) != 0 {
		t.Fatalf("after Reserve: sequences %v, %d rows; want [4], 0", seqs, c.Len(4))
	}
	// kv[(tok*layers+l)*heads+h] holds token tok's key and value rows
	// for (l, h), built before anything is measured.
	kv := make([][2][]float64, n*layers*heads)
	for i := range kv {
		kv[i] = [2][]float64{row(dim, float64(i)), row(dim, -float64(i))}
	}
	appendToken := func(c *Cache, tok int) {
		for l := 0; l < layers; l++ {
			for h := 0; h < heads; h++ {
				r := kv[(tok*layers+l)*heads+h]
				c.Append(4, l, h, r[0], r[1])
			}
		}
	}
	tok := 0
	// AllocsPerRun runs the function once more than it measures: n
	// tokens in all.
	if got := testing.AllocsPerRun(n-1, func() { appendToken(c, tok); tok++ }); got != 0 {
		t.Fatalf("appending the reserved rows allocated %v objects, want 0", got)
	}
	for tok := range n {
		appendToken(plain, tok)
	}
	if c.Len(4) != n {
		t.Fatalf("cached %d rows, want %d", c.Len(4), n)
	}
	if !Equal(c, plain, 0) || c.Fingerprint() != plain.Fingerprint() {
		t.Fatal("reserved rows cache differently from appended ones")
	}
}
