package parallel

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/kvcache"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// Mode selects which distributed forward an Engine runs.
type Mode int

const (
	// ModeTP runs the full tensor-parallel forward over all World() ranks
	// (head ownership still follows the Layout's Figure-6 mapping, which
	// is what makes it usable as the shift configuration).
	ModeTP Mode = iota
	// ModeSP runs Algorithm 1: sequence parallelism across SP groups
	// combined with tensor parallelism across TP groups.
	ModeSP
)

// String names the mode like the paper does.
func (m Mode) String() string {
	switch m {
	case ModeTP:
		return "TP"
	case ModeSP:
		return "SP"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Engine executes distributed forwards for one parallel configuration.
// Engines may share Caches (that is exactly what Shift Parallelism does:
// the base and shift engines of internal/core are two Engines over the
// same cache slice).
type Engine struct {
	W      *transformer.Weights
	Lay    Layout
	Mode   Mode
	Caches []*kvcache.Cache

	world    *comm.Group
	spGroups []*comm.Group // indexed by t; communicator of SP group {(s,t): s}
	tpGroups []*comm.Group // indexed by s; communicator of TP group {(s,t): t}
}

// NewCaches allocates one per-rank KV cache for the layout: each rank
// holds its KVHeadsOf heads. Base and shift engines built from the same
// Layout produce structurally identical caches — the KV cache invariance.
func NewCaches(lay Layout) []*kvcache.Cache {
	caches := make([]*kvcache.Cache, lay.World())
	for g := range caches {
		caches[g] = kvcache.NewCache(lay.Cfg.Layers, len(lay.KVHeadsOf(g)), lay.Cfg.HeadDim())
	}
	return caches
}

// NewEngine builds an engine over the given weights, layout, and caches.
// Passing caches from another engine of the same Layout shares the KV
// cache between them.
func NewEngine(w *transformer.Weights, lay Layout, mode Mode, caches []*kvcache.Cache) (*Engine, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if w.Cfg != lay.Cfg {
		return nil, fmt.Errorf("parallel: weights config %+v != layout config %+v", w.Cfg, lay.Cfg)
	}
	if len(caches) != lay.World() {
		return nil, fmt.Errorf("parallel: %d caches for world %d", len(caches), lay.World())
	}
	for g, c := range caches {
		if c.Heads != len(lay.KVHeadsOf(g)) || c.Layers != lay.Cfg.Layers || c.HeadDim != lay.Cfg.HeadDim() {
			return nil, fmt.Errorf("parallel: cache %d shape mismatch", g)
		}
	}
	if err := checkHeadRanges(lay); err != nil {
		return nil, err
	}
	e := &Engine{W: w, Lay: lay, Mode: mode, Caches: caches, world: comm.NewGroup(lay.World())}
	if mode == ModeSP {
		e.spGroups = make([]*comm.Group, lay.TP)
		for t := range e.spGroups {
			e.spGroups[t] = comm.NewGroup(lay.SP)
		}
		e.tpGroups = make([]*comm.Group, lay.SP)
		for s := range e.tpGroups {
			e.tpGroups[s] = comm.NewGroup(lay.TP)
		}
	}
	return e, nil
}

// CommCounters aggregates the wire-traffic counters across the engine's
// communicators (world group plus subgroups).
func (e *Engine) CommCounters() comm.Counters {
	var total comm.Counters
	add := func(c comm.Counters) {
		total.AllReduceCalls += c.AllReduceCalls
		total.AllReduceBytes += c.AllReduceBytes
		total.AllToAllCalls += c.AllToAllCalls
		total.AllToAllBytes += c.AllToAllBytes
		total.BroadcastCalls += c.BroadcastCalls
		total.BroadcastBytes += c.BroadcastBytes
	}
	add(e.world.Stats().Snapshot())
	for _, g := range e.spGroups {
		add(g.Stats().Snapshot())
	}
	for _, g := range e.tpGroups {
		add(g.Stats().Snapshot())
	}
	return total
}

// checkHeadRanges reports an error unless every head set the forwards
// shard weights by is a contiguous range of heads. The forwards read a
// rank's shard in place, as one column range of Wq/Wk/Wv or one row
// range of Wo, so a gap would silently read another rank's heads.
func checkHeadRanges(lay Layout) error {
	for g := 0; g < lay.World(); g++ {
		for _, heads := range [][]int{lay.QHeadsOf(g), lay.KVHeadsOf(g)} {
			if !contiguous(heads) {
				return fmt.Errorf("parallel: rank %d heads %v are not a contiguous range", g, heads)
			}
		}
	}
	for t := 0; t < lay.TP; t++ {
		for _, heads := range [][]int{lay.TPShardQHeads(t), lay.TPShardKVHeads(t)} {
			if !contiguous(heads) {
				return fmt.Errorf("parallel: TP shard %d heads %v are not a contiguous range", t, heads)
			}
		}
	}
	return nil
}

// contiguous reports whether heads is a non-empty run h, h+1, h+2, ...
func contiguous(heads []int) bool {
	for i, h := range heads {
		if h != heads[0]+i {
			return false
		}
	}
	return len(heads) > 0
}

// headSpan is the [lo, hi) column (or row) range that a contiguous head
// set covers in a weight of dh-wide head blocks.
func headSpan(heads []int, dh int) (lo, hi int) {
	return heads[0] * dh, (heads[len(heads)-1] + 1) * dh
}

// Forward runs one engine iteration over the batch on all ranks and
// returns the output embeddings [total tokens, d] in batch order.
func (e *Engine) Forward(batch []transformer.Chunk) *tensor.Matrix {
	x, spans := transformer.Flatten(batch)
	prevs := make([]int, len(batch))
	for i, c := range batch {
		// Every rank holds every sequence (head-parallel cache), so any
		// rank's cache answers the history length; use rank 0.
		prevs[i] = e.Caches[0].Len(c.Seq)
	}
	switch e.Mode {
	case ModeTP:
		results := comm.RunGroup(e.world, func(g *comm.Group, rank int) *tensor.Matrix {
			return e.tpRank(g, rank, batch, x, spans, prevs)
		})
		return results[0]
	case ModeSP:
		results := comm.RunGroup(e.world, func(g *comm.Group, rank int) *tensor.Matrix {
			return e.spRank(rank, batch, x, spans, prevs)
		})
		// Assemble the sequence-sharded output from the t=0 TP shard.
		parts := make([]*tensor.Matrix, e.Lay.SP)
		for s := 0; s < e.Lay.SP; s++ {
			parts[s] = results[e.Lay.RankOf(s, 0)]
		}
		full := tensor.ConcatRows(parts...)
		return tensor.ViewRows(full, 0, x.Rows) // trim decode padding
	default:
		panic(fmt.Sprintf("parallel: unknown mode %v", e.Mode))
	}
}

// tpRank is the per-rank tensor-parallel forward: activations replicated,
// weights column/row sharded by head ownership, two all-reduces per layer
// (after attention-O and after MLP-down). Shards are read in place.
func (e *Engine) tpRank(g *comm.Group, rank int, batch []transformer.Chunk, xIn *tensor.Matrix, spans [][2]int, prevs []int) *tensor.Matrix {
	cfg := e.Lay.Cfg
	dh := cfg.HeadDim()
	p := e.Lay.World()
	qHeads := e.Lay.QHeadsOf(rank)
	kvHeads := e.Lay.KVHeadsOf(rank)
	ffnPer := cfg.FFN / p
	ffnLo, ffnHi := rank*ffnPer, (rank+1)*ffnPer
	qLo, qHi := headSpan(qHeads, dh)
	kvLo, kvHi := headSpan(kvHeads, dh)

	x := xIn.Clone()
	for l := 0; l < cfg.Layers; l++ {
		lw := e.W.Layers[l]
		xn := x.Clone()
		tensor.RMSNormRows(xn, 1e-6)
		q := tensor.MatMulCols(xn, lw.Wq, qLo, qHi)
		k := tensor.MatMulCols(xn, lw.Wk, kvLo, kvHi)
		v := tensor.MatMulCols(xn, lw.Wv, kvLo, kvHi)
		attnLocal := attendBatch(e.Caches[rank], e.Lay, l, batch, spans, prevs, q, k, v, qHeads, kvHeads)
		partial := tensor.MatMul(attnLocal, tensor.ViewRows(lw.Wo, qLo, qHi))
		g.AllReduce(rank, partial.Data)
		tensor.AddInPlace(x, partial)

		xn = x.Clone()
		tensor.RMSNormRows(xn, 1e-6)
		up := tensor.MatMulCols(xn, lw.Wup, ffnLo, ffnHi)
		tensor.SiLURows(up)
		down := tensor.MatMul(up, tensor.ViewRows(lw.Wdown, ffnLo, ffnHi))
		g.AllReduce(rank, down.Data)
		tensor.AddInPlace(x, down)
	}
	return x
}

// spRank is the per-rank Algorithm 1 forward for the combined (SP, TP)
// configuration. Line numbers reference the paper's Algorithm 1.
func (e *Engine) spRank(gRank int, batch []transformer.Chunk, fullX *tensor.Matrix, spans [][2]int, prevs []int) *tensor.Matrix {
	cfg := e.Lay.Cfg
	lay := e.Lay
	dh := cfg.HeadDim()
	s, t := lay.Coords(gRank)
	spg := e.spGroups[t]
	tpg := e.tpGroups[s]

	// Line 1: slice the (padded) input sequence across the SP group.
	n := fullX.Rows
	per := (n + lay.SP - 1) / lay.SP
	x := tensor.New(per, cfg.Hidden)
	for r := 0; r < per; r++ {
		if row := s*per + r; row < n {
			copy(x.Row(r), fullX.Row(row))
		}
	}

	shardQ := lay.TPShardQHeads(t)
	shardKV := lay.TPShardKVHeads(t)
	myQ := lay.QHeadsOf(gRank)
	myKV := lay.KVHeadsOf(gRank)
	ffnPer := cfg.FFN / lay.TP
	ffnLo, ffnHi := t*ffnPer, (t+1)*ffnPer
	shardQLo, shardQHi := headSpan(shardQ, dh)
	shardKVLo, shardKVHi := headSpan(shardKV, dh)

	for l := 0; l < cfg.Layers; l++ {
		lw := e.W.Layers[l]
		xn := x.Clone()
		tensor.RMSNormRows(xn, 1e-6)

		// Line 3: QKV projection for this TP shard's heads, my rows only.
		q := tensor.MatMulCols(xn, lw.Wq, shardQLo, shardQHi)
		k := tensor.MatMulCols(xn, lw.Wk, shardKVLo, shardKVHi)
		v := tensor.MatMulCols(xn, lw.Wv, shardKVLo, shardKVHi)

		// Line 4: fused all-to-all within the SP group, switching from
		// sequence to head parallelism. KV heads needed by several
		// destinations are packed into each destination's buffer — the KV
		// cache replication of Section 3.2.1.
		send := make([][]float64, lay.SP)
		for ds := 0; ds < lay.SP; ds++ {
			dst := lay.RankOf(ds, t)
			send[ds] = packQKV(q, k, v, lay.QHeadsOf(dst), lay.KVHeadsOf(dst), shardQ, shardKV, dh)
		}
		recv := spg.AllToAll(s, send)
		qAll, kAll, vAll := unpackQKV(recv, per, myQ, myKV, dh)

		// Line 5: head-parallel attention over the full (padded) sequence.
		attnAll := attendBatch(e.Caches[gRank], lay, l, batch, spans, prevs, qAll, kAll, vAll, myQ, myKV)

		// Line 6: all-to-all back to sequence parallelism.
		send2 := make([][]float64, lay.SP)
		for ds := 0; ds < lay.SP; ds++ {
			lo, hi := ds*per, (ds+1)*per
			buf := make([]float64, 0, per*len(myQ)*dh)
			for r := lo; r < hi; r++ {
				buf = append(buf, attnAll.Row(r)...)
			}
			send2[ds] = buf
		}
		recv2 := spg.AllToAll(s, send2)
		// Scatter received head columns into shard order for the O GEMM.
		attnShard := tensor.New(per, len(shardQ)*dh)
		base := shardQ[0]
		for srcS := 0; srcS < lay.SP; srcS++ {
			srcHeads := lay.QHeadsOf(lay.RankOf(srcS, t))
			buf := recv2[srcS]
			w := len(srcHeads) * dh
			for r := 0; r < per; r++ {
				for qi, h := range srcHeads {
					copy(attnShard.Row(r)[(h-base)*dh:(h-base+1)*dh], buf[r*w+qi*dh:r*w+(qi+1)*dh])
				}
			}
		}

		// Lines 7-8: O projection on the shard's Wo rows + TP all-reduce.
		o := tensor.MatMul(attnShard, tensor.ViewRows(lw.Wo, shardQLo, shardQHi))
		if lay.TP > 1 {
			tpg.AllReduce(t, o.Data)
		}
		tensor.AddInPlace(x, o)

		// Lines 9-11: TP-sharded MLP on my sequence slice + all-reduce.
		xn = x.Clone()
		tensor.RMSNormRows(xn, 1e-6)
		up := tensor.MatMulCols(xn, lw.Wup, ffnLo, ffnHi)
		tensor.SiLURows(up)
		down := tensor.MatMul(up, tensor.ViewRows(lw.Wdown, ffnLo, ffnHi))
		if lay.TP > 1 {
			tpg.AllReduce(t, down.Data)
		}
		tensor.AddInPlace(x, down)
	}
	return x
}

// packQKV builds the all-to-all send buffer for one destination rank:
// for each source row, the destination's q heads then k then v heads.
func packQKV(q, k, v *tensor.Matrix, dstQ, dstKV, shardQ, shardKV []int, dh int) []float64 {
	rows := q.Rows
	buf := make([]float64, 0, rows*(len(dstQ)+2*len(dstKV))*dh)
	qIdx := indexIn(shardQ, dstQ)
	kvIdx := indexIn(shardKV, dstKV)
	for r := 0; r < rows; r++ {
		qr, kr, vr := q.Row(r), k.Row(r), v.Row(r)
		for _, qi := range qIdx {
			buf = append(buf, qr[qi*dh:(qi+1)*dh]...)
		}
		for _, ki := range kvIdx {
			buf = append(buf, kr[ki*dh:(ki+1)*dh]...)
		}
		for _, vi := range kvIdx {
			buf = append(buf, vr[vi*dh:(vi+1)*dh]...)
		}
	}
	return buf
}

// unpackQKV reassembles the full-sequence q/k/v matrices for this rank's
// heads from the all-to-all receive buffers (source ranks hold contiguous
// row slices, so concatenation in rank order restores global row order).
func unpackQKV(recv [][]float64, per int, myQ, myKV []int, dh int) (q, k, v *tensor.Matrix) {
	sp := len(recv)
	q = tensor.New(sp*per, len(myQ)*dh)
	k = tensor.New(sp*per, len(myKV)*dh)
	v = tensor.New(sp*per, len(myKV)*dh)
	rowW := (len(myQ) + 2*len(myKV)) * dh
	qW, kvW := len(myQ)*dh, len(myKV)*dh
	for src := 0; src < sp; src++ {
		buf := recv[src]
		for r := 0; r < per; r++ {
			row := src*per + r
			off := r * rowW
			copy(q.Row(row), buf[off:off+qW])
			copy(k.Row(row), buf[off+qW:off+qW+kvW])
			copy(v.Row(row), buf[off+qW+kvW:off+qW+2*kvW])
		}
	}
	return q, k, v
}

// indexIn maps each element of want to its index within have.
func indexIn(have, want []int) []int {
	pos := make(map[int]int, len(have))
	for i, h := range have {
		pos[h] = i
	}
	out := make([]int, len(want))
	for i, w := range want {
		j, ok := pos[w]
		if !ok {
			panic(fmt.Sprintf("parallel: head %d not in shard %v", w, have))
		}
		out[i] = j
	}
	return out
}

// attendBatch appends the new K/V rows to the rank's cache and computes
// head-parallel causal attention for this rank's q heads over every real
// row of the batch. Rows beyond the batch's token count (decode padding
// under SP) produce zero output and are never cached — the load-balancing
// padding of Section 3.2.1.
func attendBatch(cache *kvcache.Cache, lay Layout, layer int, batch []transformer.Chunk, spans [][2]int, prevs []int, q, k, v *tensor.Matrix, qHeads, kvHeads []int) *tensor.Matrix {
	cfg := lay.Cfg
	dh := cfg.HeadDim()
	gqa := cfg.GQAGroup()
	out := tensor.New(q.Rows, len(qHeads)*dh)
	kvPos := make(map[int]int, len(kvHeads))
	for i, kv := range kvHeads {
		kvPos[kv] = i
	}
	for bi, c := range batch {
		lo, hi := spans[bi][0], spans[bi][1]
		for j := range kvHeads {
			for row := lo; row < hi; row++ {
				cache.Append(c.Seq, layer, j, k.Row(row)[j*dh:(j+1)*dh], v.Row(row)[j*dh:(j+1)*dh])
			}
		}
		for qi, qh := range qHeads {
			j := kvPos[qh/gqa]
			kc, vc := cache.Views(c.Seq, layer, j)
			qSeq := tensor.SliceCols(tensor.ViewRows(q, lo, hi), qi*dh, (qi+1)*dh)
			att := transformer.Attend(qSeq, kc, vc, prevs[bi])
			for r := 0; r < att.Rows; r++ {
				copy(out.Row(lo + r)[qi*dh:(qi+1)*dh], att.Row(r))
			}
		}
	}
	return out
}
