// Package kvcache implements the two KV caches of the reproduction:
//
//   - Cache: a value-bearing per-rank KV store used by the functional
//     transformer forwards. Its layout — (layer, local head, token) — is
//     what the paper's KV cache invariance argument is about: TP and SP
//     ranks hold exactly the same head slices, so Shift Parallelism can
//     swap parallelisms without moving cache data. Tests compare Cache
//     fingerprints across configurations to prove the invariance.
//
//   - Allocator: a vLLM-style paged block allocator used by the serving
//     simulator for admission control and preemption accounting. It
//     only counts free blocks; each sequence keeps its own holding.
package kvcache

import (
	"fmt"
	"math"
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

type seqKV struct {
	// k[layer][head] holds token rows flattened back-to-back, each row of
	// length HeadDim.
	k, v [][][]float64
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
		s = &seqKV{
			k: makeLayerHeads(c.Layers, c.Heads),
			v: makeLayerHeads(c.Layers, c.Heads),
		}
		c.seqs[id] = s
	}
	return s
}

func makeLayerHeads(layers, heads int) [][][]float64 {
	out := make([][][]float64, layers)
	for l := range out {
		out[l] = make([][]float64, heads)
	}
	return out
}

// rows returns the flattened key and value rows cached for (seq,
// layer, head), nil for a sequence the cache does not hold.
func (c *Cache) rows(seqID, layer, head int) (k, v []float64) {
	c.checkIndex(layer, head)
	s, ok := c.seqs[seqID]
	if !ok {
		return nil, nil
	}
	return s.k[layer][head], s.v[layer][head]
}

// Append adds one token's key and value rows for (layer, local head).
// Rows are copied.
func (c *Cache) Append(seqID, layer, head int, kRow, vRow []float64) {
	c.checkIndex(layer, head)
	if len(kRow) != c.HeadDim || len(vRow) != c.HeadDim {
		panic(fmt.Sprintf("kvcache: row dim %d/%d, want %d", len(kRow), len(vRow), c.HeadDim))
	}
	s := c.seq(seqID)
	s.k[layer][head] = append(s.k[layer][head], kRow...)
	s.v[layer][head] = append(s.v[layer][head], vRow...)
}

// Reserve makes room for n more token rows of (seq, layer, local head),
// creating the sequence as Append does, so the next n Appends there do
// not regrow its storage.
func (c *Cache) Reserve(seqID, layer, head, n int) {
	c.checkIndex(layer, head)
	s := c.seq(seqID)
	s.k[layer][head] = reserve(s.k[layer][head], n*c.HeadDim)
	s.v[layer][head] = reserve(s.v[layer][head], n*c.HeadDim)
}

// reserve returns flat with room for n more floats. When it must move
// the rows it at least doubles their capacity, so one-row reservations
// (decode steps) stay amortized, and it allocates once: slices.Grow
// allocates a second time under the race detector.
func reserve(flat []float64, n int) []float64 {
	if len(flat)+n <= cap(flat) {
		return flat
	}
	grown := make([]float64, len(flat), max(len(flat)+n, 2*cap(flat)))
	copy(grown, flat)
	return grown
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
	max := 0
	for l := range s.k {
		for h := range s.k[l] {
			if n := len(s.k[l][h]); n > max {
				max = n
			}
		}
	}
	return max / c.HeadDim
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
		// Order-sensitive mixing so permuted layouts differ.
		h = h*1.000000119 + x*math.Cos(h*1e-3+1)
	}
	for _, id := range c.Sequences() {
		k, v := c.seqs[id].k, c.seqs[id].v
		mix(float64(id))
		for l := 0; l < c.Layers; l++ {
			for hh := 0; hh < c.Heads; hh++ {
				for _, x := range k[l][hh] {
					mix(x)
				}
				for _, x := range v[l][hh] {
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
