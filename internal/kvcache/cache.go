// Package kvcache implements the functional engine's KV cache: Cache,
// a value-bearing per-rank KV store used by the transformer forwards.
// Its layout — (layer, local head, token) — is what the paper's KV cache
// invariance argument is about: TP and SP ranks hold exactly the same
// head slices, so Shift Parallelism can swap parallelisms without moving
// cache data. Tests compare Cache fingerprints across configurations to
// prove the invariance. The serving simulator's paged block accounting
// is internal/serve's own and does not import this package.
//
// Each cached sequence owns one slab per rank, as a PagedAttention
// sequence owns its blocks: every (layer, head) K and V row of the
// sequence lives in it, so a new sequence costs one slab and a growth
// moves the whole sequence once, not once per (layer, head).
package kvcache

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/tensor"
)

// Cache holds the key/value vectors owned by one rank: the KV heads
// assigned to that rank, for every layer, for every cached sequence.
type Cache struct {
	Layers  int
	Heads   int // local KV heads on this rank
	HeadDim int
	seqs    map[int]*seqKV
}

// seqKV is one sequence's rows on one rank. The slab is laid out
// [layer][head][k|v][cap][HeadDim]: (layer, head) = i, at i = layer*Heads
// + head, holds its K rows in region 2i and its V rows in region 2i+1,
// each region cap rows long; n[i] of them are cached. Every region has
// the same capacity, so one growth serves every (layer, head).
type seqKV struct {
	slab []float64
	cap  int
	n    []int
}

// NewCache returns an empty cache for a rank owning the given number of
// local KV heads.
func NewCache(layers, heads, headDim int) *Cache {
	if layers <= 0 || heads <= 0 || headDim <= 0 {
		panic(fmt.Sprintf("kvcache: bad dims L=%d H=%d D=%d", layers, heads, headDim))
	}
	return &Cache{Layers: layers, Heads: heads, HeadDim: headDim, seqs: make(map[int]*seqKV)}
}

// seq returns the sequence's entry, creating it: only Append and
// Reserve call it. Reads go through rows, so reading a sequence never
// caches it.
func (c *Cache) seq(id int) *seqKV {
	s, ok := c.seqs[id]
	if !ok {
		s = &seqKV{n: make([]int, c.Layers*c.Heads)}
		c.seqs[id] = s
	}
	return s
}

// region returns the offset, in a slab of capacity rows per region, of
// (layer, head) i's K rows (kv 0) or V rows (kv 1).
func (c *Cache) region(i, kv, rows int) int { return (2*i + kv) * rows * c.HeadDim }

// rows returns the flattened key and value rows cached for (seq,
// layer, head), nil for a sequence the cache does not hold. Both are
// capped at their length, so an append through them cannot reach the
// rows that follow in the slab.
func (c *Cache) rows(seqID, layer, head int) (k, v []float64) {
	c.checkIndex(layer, head)
	s, ok := c.seqs[seqID]
	if !ok {
		return nil, nil
	}
	i := layer*c.Heads + head
	n := s.n[i] * c.HeadDim
	k0, v0 := c.region(i, 0, s.cap), c.region(i, 1, s.cap)
	return s.slab[k0 : k0+n : k0+n], s.slab[v0 : v0+n : v0+n]
}

// Append adds one token's key and value rows for (layer, local head).
// Rows are copied.
func (c *Cache) Append(seqID, layer, head int, kRow, vRow []float64) {
	c.checkIndex(layer, head)
	if len(kRow) != c.HeadDim || len(vRow) != c.HeadDim {
		panic(fmt.Sprintf("kvcache: row dim %d/%d, want %d", len(kRow), len(vRow), c.HeadDim))
	}
	s := c.seq(seqID)
	i := layer*c.Heads + head
	c.grow(s, s.n[i]+1)
	at := s.n[i] * c.HeadDim
	copy(s.slab[c.region(i, 0, s.cap)+at:], kRow)
	copy(s.slab[c.region(i, 1, s.cap)+at:], vRow)
	s.n[i]++
}

// Reserve makes room for n more token rows of (seq, layer, local head),
// creating the sequence as Append does, so the next n Appends there do
// not regrow its storage. The room is the slab's: every (layer, head)
// of the sequence can then hold as many rows as this one holds plus n.
func (c *Cache) Reserve(seqID, layer, head, n int) {
	c.checkIndex(layer, head)
	s := c.seq(seqID)
	c.grow(s, s.n[layer*c.Heads+head]+n)
}

// grow gives s's slab room for need rows in every region. When it must
// move the rows it at least doubles the capacity, so one-row growths
// (decode steps) stay amortized, and it allocates once. Views taken
// before a move keep the old slab, whose rows nothing writes again.
func (c *Cache) grow(s *seqKV, need int) {
	if need <= s.cap {
		return
	}
	old, oldCap := s.slab, s.cap
	s.cap = max(need, 2*oldCap)
	s.slab = make([]float64, 2*len(s.n)*s.cap*c.HeadDim)
	for i, n := range s.n {
		for kv := 0; kv < 2; kv++ {
			from := c.region(i, kv, oldCap)
			copy(s.slab[c.region(i, kv, s.cap):], old[from:from+n*c.HeadDim])
		}
	}
}

func (c *Cache) checkIndex(layer, head int) {
	if layer < 0 || layer >= c.Layers || head < 0 || head >= c.Heads {
		panic(fmt.Sprintf("kvcache: (layer=%d, head=%d) out of (%d, %d)", layer, head, c.Layers, c.Heads))
	}
}

// Len returns the number of cached tokens for the sequence (0 if
// unknown), defined as the longest (layer, head) row list.
func (c *Cache) Len(seqID int) int {
	s, ok := c.seqs[seqID]
	if !ok {
		return 0
	}
	return slices.Max(s.n)
}

// K returns the cached keys for (seq, layer, head) as an n x HeadDim
// matrix; n is 0 for a sequence the cache does not hold.
func (c *Cache) K(seqID, layer, head int) *tensor.Matrix {
	k, _ := c.rows(seqID, layer, head)
	return rowsToMatrix(k, c.HeadDim)
}

// V returns the cached values for (seq, layer, head) as an n x HeadDim matrix.
func (c *Cache) V(seqID, layer, head int) *tensor.Matrix {
	_, v := c.rows(seqID, layer, head)
	return rowsToMatrix(v, c.HeadDim)
}

// Views returns the cached keys and values for (seq, layer, head) as
// n x HeadDim matrices that alias the cache's storage instead of copying
// it. They are read-only: a write through them changes the cache. A
// later Append leaves their n rows as they are (it may move the storage)
// and is seen by the next Views call, not by these matrices.
func (c *Cache) Views(seqID, layer, head int) (k, v *tensor.Matrix) {
	k, v = &tensor.Matrix{}, &tensor.Matrix{}
	c.ViewsInto(k, v, seqID, layer, head)
	return k, v
}

// ViewsInto is Views filling the caller's matrix headers k and v
// instead of allocating two: their Data alias the cache's storage, read
// only, with the same rules as Views'.
func (c *Cache) ViewsInto(k, v *tensor.Matrix, seqID, layer, head int) {
	ks, vs := c.rows(seqID, layer, head)
	rowsView(k, ks, c.HeadDim)
	rowsView(v, vs, c.HeadDim)
}

func rowsView(m *tensor.Matrix, flat []float64, dim int) {
	n := len(flat) / dim
	*m = tensor.Matrix{Rows: n, Cols: dim, Data: flat[: n*dim : n*dim]}
}

func rowsToMatrix(flat []float64, dim int) *tensor.Matrix {
	n := len(flat) / dim
	m := tensor.New(n, dim)
	copy(m.Data, flat)
	return m
}

// Sequences returns the cached sequence IDs in ascending order.
func (c *Cache) Sequences() []int {
	out := make([]int, 0, len(c.seqs))
	for id := range c.seqs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Drop removes a sequence from the cache. Only tests call it: it is
// the free path of a finished or preempted sequence, kept so the
// functional engine's invariance tests can pin that dropping one
// sequence mid-service leaves every other sequence decoding
// bit-exactly, and so the serving engine's schedules can be replayed on
// the functional engine.
func (c *Cache) Drop(seqID int) { delete(c.seqs, seqID) }

// Fingerprint returns a deterministic digest of the full cache contents
// (all sequences, layers, heads, tokens). Two ranks hold identical cache
// state iff their fingerprints match to floating-point exactness. Only
// tests call it, but tests in three packages (kvcache, transformer and
// core's output pin), so it stays exported rather than moving into one
// of them.
func (c *Cache) Fingerprint() float64 {
	h := 0.0
	mix := func(x float64) {
		// Order-sensitive mixing so permuted layouts differ. Each
		// product is rounded on its own (float64(...)), so no target
		// fuses it into the sum that follows.
		h = float64(h*1.000000119) + float64(x*math.Cos(float64(h*1e-3)+1))
	}
	for _, id := range c.Sequences() {
		mix(float64(id))
		for l := 0; l < c.Layers; l++ {
			for hh := 0; hh < c.Heads; hh++ {
				k, v := c.rows(id, l, hh)
				for _, x := range k {
					mix(x)
				}
				for _, x := range v {
					mix(x)
				}
			}
		}
	}
	return h
}

// Equal reports whether two caches hold identical contents within tol.
func Equal(a, b *Cache, tol float64) bool {
	if a.Layers != b.Layers || a.Heads != b.Heads || a.HeadDim != b.HeadDim {
		return false
	}
	as, bs := a.Sequences(), b.Sequences()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	for _, id := range as {
		if a.Len(id) != b.Len(id) {
			return false
		}
		for l := 0; l < a.Layers; l++ {
			for h := 0; h < a.Heads; h++ {
				if !tensor.Equal(a.K(id, l, h), b.K(id, l, h), tol) {
					return false
				}
				if !tensor.Equal(a.V(id, l, h), b.V(id, l, h), tol) {
					return false
				}
			}
		}
	}
	return true
}
