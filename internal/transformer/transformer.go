// Package transformer implements the vanilla GQA transformer of the
// paper's Section 2.3 at test scale: dense float64 math, pre-RMSNorm,
// causal attention with a KV cache, SiLU MLP. The Reference type is the
// single-device oracle that every parallel forward in internal/parallel
// and internal/core must match to floating-point tolerance.
package transformer

import (
	"fmt"
	"math"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

// Config describes a test-scale transformer. Unlike internal/model (which
// describes the paper's full-size evaluation models for the cost model),
// this config is meant to be instantiated and run.
type Config struct {
	Layers  int
	Hidden  int // embedding dimension d
	QHeads  int // h
	KVHeads int // h_kv (GQA when < QHeads)
	FFN     int // MLP intermediate dimension d'
}

// Validate reports structural errors.
func (c Config) Validate() error {
	if c.Layers <= 0 || c.Hidden <= 0 || c.QHeads <= 0 || c.KVHeads <= 0 || c.FFN <= 0 {
		return fmt.Errorf("transformer: non-positive dims %+v", c)
	}
	if c.Hidden%c.QHeads != 0 {
		return fmt.Errorf("transformer: hidden %d %% q heads %d != 0", c.Hidden, c.QHeads)
	}
	if c.QHeads%c.KVHeads != 0 {
		return fmt.Errorf("transformer: q heads %d %% kv heads %d != 0", c.QHeads, c.KVHeads)
	}
	return nil
}

// HeadDim returns d/h.
func (c Config) HeadDim() int { return c.Hidden / c.QHeads }

// GQAGroup returns the number of q heads per kv head.
func (c Config) GQAGroup() int { return c.QHeads / c.KVHeads }

// LayerWeights holds one transformer layer's parameters. Wq/Wk/Wv are the
// column blocks of the fused QKV matrix (kept separate so parallel
// implementations can shard by head without index gymnastics).
type LayerWeights struct {
	Wq    *tensor.Matrix // [d, h*dh]
	Wk    *tensor.Matrix // [d, hkv*dh]
	Wv    *tensor.Matrix // [d, hkv*dh]
	Wo    *tensor.Matrix // [h*dh, d]
	Wup   *tensor.Matrix // [d, d']
	Wdown *tensor.Matrix // [d', d]
}

// Weights is the full (unsharded) model parameter set.
type Weights struct {
	Cfg    Config
	Layers []LayerWeights
}

// NewWeights deterministically initializes weights from the seed with
// 1/sqrt(fanin) scaling. The same seed yields identical weights across
// all parallel configurations, which the equivalence tests depend on.
func NewWeights(cfg Config, seed uint64) *Weights {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := tensor.NewRNG(seed)
	d, dh := cfg.Hidden, cfg.HeadDim()
	w := &Weights{Cfg: cfg, Layers: make([]LayerWeights, cfg.Layers)}
	for l := range w.Layers {
		w.Layers[l] = LayerWeights{
			Wq:    rng.RandMatrix(d, cfg.QHeads*dh, 1/math.Sqrt(float64(d))),
			Wk:    rng.RandMatrix(d, cfg.KVHeads*dh, 1/math.Sqrt(float64(d))),
			Wv:    rng.RandMatrix(d, cfg.KVHeads*dh, 1/math.Sqrt(float64(d))),
			Wo:    rng.RandMatrix(cfg.QHeads*dh, d, 1/math.Sqrt(float64(cfg.QHeads*dh))),
			Wup:   rng.RandMatrix(d, cfg.FFN, 1/math.Sqrt(float64(d))),
			Wdown: rng.RandMatrix(cfg.FFN, d, 1/math.Sqrt(float64(cfg.FFN))),
		}
	}
	return w
}

// ParamCount returns the number of scalar parameters.
func (w *Weights) ParamCount() int {
	n := 0
	for _, l := range w.Layers {
		n += len(l.Wq.Data) + len(l.Wk.Data) + len(l.Wv.Data) +
			len(l.Wo.Data) + len(l.Wup.Data) + len(l.Wdown.Data)
	}
	return n
}

// Chunk is a slice of one sequence's tokens entering the engine in a
// single iteration: the whole prompt (prefill), one token (decode), or a
// prefix piece (chunked prefill). X is [tokens, d].
type Chunk struct {
	Seq int
	X   *tensor.Matrix
}

// BatchTokens returns the total number of tokens across chunks — the
// quantity Shift Parallelism thresholds on (Algorithm 2).
func BatchTokens(batch []Chunk) int {
	n := 0
	for _, c := range batch {
		n += c.X.Rows
	}
	return n
}

// Reference is the single-device oracle implementation.
type Reference struct {
	Cfg   Config
	W     *Weights
	Cache *kvcache.Cache
}

// NewReference returns a reference engine with an empty cache.
func NewReference(w *Weights) *Reference {
	cfg := w.Cfg
	return &Reference{
		Cfg:   cfg,
		W:     w,
		Cache: kvcache.NewCache(cfg.Layers, cfg.KVHeads, cfg.HeadDim()),
	}
}

// Forward runs one engine iteration over the batch and returns the output
// embeddings, rows in batch order ([total tokens, d]).
func (r *Reference) Forward(batch []Chunk) *tensor.Matrix {
	cfg := r.Cfg
	// Flatten the batch into one activation matrix; remember row spans.
	x, spans := flatten(batch)
	// Snapshot each sequence's history length before this iteration.
	prev := make([]int, len(batch))
	for i, c := range batch {
		prev[i] = r.Cache.Len(c.Seq)
	}
	dh := cfg.HeadDim()
	for l := 0; l < cfg.Layers; l++ {
		lw := r.W.Layers[l]
		// Attention block.
		xn := x.Clone()
		tensor.RMSNormRows(xn, 1e-6)
		q := tensor.MatMul(xn, lw.Wq)
		k := tensor.MatMul(xn, lw.Wk)
		v := tensor.MatMul(xn, lw.Wv)
		attnOut := tensor.New(x.Rows, cfg.QHeads*dh)
		for bi, c := range batch {
			lo, hi := spans[bi][0], spans[bi][1]
			// Append this chunk's K/V rows to the cache.
			for hkv := 0; hkv < cfg.KVHeads; hkv++ {
				for row := lo; row < hi; row++ {
					r.Cache.Append(c.Seq, l, hkv,
						k.Row(row)[hkv*dh:(hkv+1)*dh],
						v.Row(row)[hkv*dh:(hkv+1)*dh])
				}
			}
			for h := 0; h < cfg.QHeads; h++ {
				hkv := h / cfg.GQAGroup()
				kc, vc := r.Cache.Views(c.Seq, l, hkv)
				qh := tensor.SliceCols(tensor.ViewRows(q, lo, hi), h*dh, (h+1)*dh)
				out := Attend(qh, kc, vc, prev[bi])
				for t := 0; t < out.Rows; t++ {
					copy(attnOut.Row(lo + t)[h*dh:(h+1)*dh], out.Row(t))
				}
			}
		}
		tensor.AddInPlace(x, tensor.MatMul(attnOut, lw.Wo))
		// MLP block.
		xn = x.Clone()
		tensor.RMSNormRows(xn, 1e-6)
		up := tensor.MatMul(xn, lw.Wup)
		tensor.SiLURows(up)
		tensor.AddInPlace(x, tensor.MatMul(up, lw.Wdown))
	}
	return x
}

// Attend computes causal attention for one head: q is [t, dh] for the t
// new tokens whose absolute positions start at prevLen; k and v are the
// full cached history [ctx, dh] including the new tokens. Token i attends
// to cache rows [0, prevLen+i].
func Attend(q, k, v *tensor.Matrix, prevLen int) *tensor.Matrix {
	dh := q.Cols
	scale := 1 / math.Sqrt(float64(dh))
	scores := tensor.MatMulT(q, k)
	for i := 0; i < scores.Rows; i++ {
		row := scores.Row(i)
		limit := prevLen + i // inclusive
		for j := range row {
			if j > limit {
				row[j] = math.Inf(-1)
			} else {
				row[j] *= scale
			}
		}
	}
	tensor.SoftmaxRows(scores)
	return tensor.MatMul(scores, v)
}

// flatten concatenates chunk activations and returns per-chunk [lo, hi)
// row spans.
func flatten(batch []Chunk) (*tensor.Matrix, [][2]int) {
	if len(batch) == 0 {
		panic("transformer: empty batch")
	}
	spans := make([][2]int, len(batch))
	mats := make([]*tensor.Matrix, len(batch))
	off := 0
	for i, c := range batch {
		if c.X.Rows == 0 {
			panic(fmt.Sprintf("transformer: empty chunk for seq %d", c.Seq))
		}
		spans[i] = [2]int{off, off + c.X.Rows}
		mats[i] = c.X
		off += c.X.Rows
	}
	return tensor.ConcatRows(mats...), spans
}

// Flatten is the exported flatten used by parallel implementations.
func Flatten(batch []Chunk) (*tensor.Matrix, [][2]int) { return flatten(batch) }
