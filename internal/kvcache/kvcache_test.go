package kvcache

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

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

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(16, 10)
	if a.FreeBlocks() != 10 || a.UsedBlocks() != 0 {
		t.Fatal("fresh allocator wrong")
	}
	if a.BlocksFor(1) != 1 || a.BlocksFor(16) != 1 || a.BlocksFor(17) != 2 || a.BlocksFor(0) != 0 {
		t.Fatal("BlocksFor wrong")
	}
	var held int32
	if err := a.Grow(&held, 40); err != nil { // 3 blocks
		t.Fatal(err)
	}
	if held != 3 || a.FreeBlocks() != 7 {
		t.Fatalf("holds=%d free=%d", held, a.FreeBlocks())
	}
	// Growing to 50 tokens needs 4 blocks total, 1 more.
	if err := a.Grow(&held, 50); err != nil {
		t.Fatal(err)
	}
	if held != 4 {
		t.Fatalf("holds = %d", held)
	}
	// Shrinking request is a no-op.
	if err := a.Grow(&held, 10); err != nil || held != 4 {
		t.Fatal("shrink should be no-op")
	}
	a.Free(&held)
	if a.FreeBlocks() != 10 || held != 0 {
		t.Fatal("free did not return blocks")
	}
}

func TestAllocatorNoSpace(t *testing.T) {
	a := NewAllocator(16, 2)
	var one, two int32
	if err := a.Grow(&one, 32); err != nil {
		t.Fatal(err)
	}
	err := a.Grow(&two, 1)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	// Failed growth must not leak partial allocations.
	if two != 0 || a.FreeBlocks() != 0 {
		t.Fatal("failed grow leaked blocks")
	}
	if a.CanGrow(two, 1) {
		t.Fatal("CanGrow should be false")
	}
	a.Free(&one)
	if !a.CanGrow(two, 32) {
		t.Fatal("CanGrow should be true after free")
	}
}

func TestAllocatorInvariant(t *testing.T) {
	a := NewAllocator(8, 100)
	held := make([]int32, 20)
	for i := range held {
		if err := a.Grow(&held[i], 8*(i%5+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i += 2 {
		a.Free(&held[i])
	}
	sum := 0
	for _, h := range held {
		sum += int(h)
	}
	if err := a.CheckInvariant(sum); err != nil {
		t.Fatal(err)
	}
	if a.CheckInvariant(sum+1) == nil || a.CheckInvariant(sum-1) == nil {
		t.Fatal("CheckInvariant accepted a wrong holding sum")
	}
}

// TestAllocatorFastPathMatchesDivision: Grow and CanGrow compare tokens
// with the holding's capacity before they divide. Over every block size,
// holding, token count and free count below, each must give the error,
// holding, free count and answer of the division formula they replaced.
func TestAllocatorFastPathMatchesDivision(t *testing.T) {
	for _, bt := range []int{1, 2, 3, 16, 17} {
		for h := int32(0); h <= 40; h++ {
			for _, free := range []int{0, 1, 2, 7, 64} {
				a := NewAllocator(bt, int(h)+free)
				var held int32
				if err := a.Grow(&held, int(h)*bt); err != nil || held != h || a.FreeBlocks() != free {
					t.Fatalf("setup: held %d free %d err %v, want %d, %d", held, a.FreeBlocks(), err, h, free)
				}
				for tokens := -2; tokens <= 700; tokens++ {
					wantHeld, wantFree, wantErr := divisionGrow(bt, free, h, tokens)
					b, got := *a, h
					err := b.Grow(&got, tokens)
					if err != wantErr || got != wantHeld || b.FreeBlocks() != wantFree {
						t.Fatalf("block %d, held %d, free %d: Grow(%d) = %v, held %d, free %d; division %v, %d, %d",
							bt, h, free, tokens, err, got, b.FreeBlocks(), wantErr, wantHeld, wantFree)
					}
					if can, want := a.CanGrow(h, tokens), divisionCanGrow(bt, free, h, tokens); can != want {
						t.Fatalf("block %d, held %d, free %d: CanGrow(%d) = %v, division %v", bt, h, free, tokens, can, want)
					}
				}
			}
		}
	}
}

// divisionGrow and divisionCanGrow are Grow and CanGrow as they were
// before the capacity comparison, when every call divided: the
// reference the fast path is checked against. They do not follow later
// changes to the allocator.
func divisionGrow(blockTokens, free int, held int32, tokens int) (int32, int, error) {
	need := divisionBlocks(blockTokens, tokens) - int(held)
	if need <= 0 {
		return held, free, nil
	}
	if need > free {
		return held, free, ErrNoSpace
	}
	return held + int32(need), free - need, nil
}

func divisionCanGrow(blockTokens, free int, held int32, tokens int) bool {
	return divisionBlocks(blockTokens, tokens)-int(held) <= free
}

func divisionBlocks(blockTokens, tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + blockTokens - 1) / blockTokens
}

func TestQuickAllocatorConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator(4, 64)
		var held [8]int32
		for _, op := range ops {
			seq := int(op % 8)
			tokens := int(op/8) % 40
			if op%3 == 0 {
				a.Free(&held[seq])
			} else if err := a.Grow(&held[seq], tokens); err != nil && !errors.Is(err, ErrNoSpace) {
				return false
			}
			sum := 0
			for _, h := range held {
				if h < 0 {
					return false
				}
				sum += int(h)
			}
			if a.CheckInvariant(sum) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewAllocatorRejectsBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {16, -1}, {16, math.MaxInt32 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAllocator(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			NewAllocator(dims[0], dims[1])
		}()
	}
	if a := NewAllocator(1, math.MaxInt32); a.FreeBlocks() != math.MaxInt32 {
		t.Fatal("MaxInt32 blocks should be allowed")
	}
}

// Freeing a holding that never grew (a sequence the allocator has not
// seen) changes nothing.
func TestReleaseUnknownSeqHarmless(t *testing.T) {
	a := NewAllocator(4, 4)
	var held int32
	a.Free(&held)
	if a.FreeBlocks() != 4 || held != 0 {
		t.Fatal("free of an empty holding changed state")
	}
	if err := a.CheckInvariant(0); err != nil {
		t.Fatal(err)
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

// Reserve creates the sequence as Append does, caches no rows, and
// leaves room for the rows it reserved: appending them moves no storage
// and caches exactly what an Append-only cache holds.
func TestCacheReserveThenAppend(t *testing.T) {
	c, plain := NewCache(2, 2, 3), NewCache(2, 2, 3)
	c.Reserve(4, 1, 0, 3)
	if seqs := c.Sequences(); len(seqs) != 1 || seqs[0] != 4 || c.Len(4) != 0 {
		t.Fatalf("after Reserve: sequences %v, %d rows; want [4], 0", seqs, c.Len(4))
	}
	k, v := c.seqs[4].k[1][0], c.seqs[4].v[1][0]
	if cap(k) < 9 || cap(v) < 9 {
		t.Fatalf("reserved capacity %d/%d floats, want at least 9", cap(k), cap(v))
	}
	for i := 0; i < 3; i++ {
		c.Append(4, 1, 0, row(3, float64(i)), row(3, float64(-i)))
		plain.Append(4, 1, 0, row(3, float64(i)), row(3, float64(-i)))
	}
	if &c.seqs[4].k[1][0][0] != &k[:1][0] || &c.seqs[4].v[1][0][0] != &v[:1][0] {
		t.Fatal("appending the reserved rows moved the storage")
	}
	if !Equal(c, plain, 0) || c.Fingerprint() != plain.Fingerprint() {
		t.Fatal("reserved rows cache differently from appended ones")
	}
}
