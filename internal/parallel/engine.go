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
//
// A forward allocates only what outlives it: its output matrix, the KV
// rows it appends to the caches, and the goroutines and closures of its
// rank group. Each rank computes out of its own workspace, which grows
// on its first forward and is reused across layers and forwards. Forward
// is not safe to call concurrently with itself, or with the Forward of
// an engine sharing its caches: it appends to the shared caches and
// rewrites the engine's workspaces.
type Engine struct {
	W      *transformer.Weights
	Lay    Layout
	Mode   Mode
	Caches []*kvcache.Cache

	world    *comm.Group
	spGroups []*comm.Group // indexed by t; communicator of SP group {(s,t): s}
	tpGroups []*comm.Group // indexed by s; communicator of TP group {(s,t): t}

	ranks []rankPlan  // by global rank: its fixed share of the weights and heads
	ws    []workspace // by global rank: its scratch, written only by that rank

	// The batch of the running forward, flattened once for every rank:
	// its activations, each chunk's row span in them, and each chunk's
	// sequence history length before this iteration.
	x     tensor.Matrix
	spans [][2]int
	prevs []int
}

// rankPlan is one rank's fixed share of a forward, derived once from the
// weights and layout in NewEngine. Under ModeTP a rank projects and
// attends with its own heads and holds 1/World() of the MLP; under
// ModeSP it projects with its TP shard's heads, attends with its own
// after the all-to-all, and holds 1/TP of the MLP.
type rankPlan struct {
	q, kv HeadRange // attention heads (QRange, KVRange)
	// Column ranges of Wq and of Wk/Wv the QKV GEMM projects onto;
	// [qLo, qHi) is also the range of Wo rows the O GEMM reads.
	qLo, qHi, kvLo, kvHi int
	ffnLo, ffnHi         int             // Wup columns and Wdown rows
	wo, wdown            []tensor.Matrix // by layer: views of those Wo and Wdown rows
	// By layer: the QKV panel [Wq[:, qLo:qHi] | Wk[:, kvLo:kvHi] |
	// Wv[:, kvLo:kvHi]], one copy shared by every rank of the engine
	// with the same ranges (the SP ranks of one TP shard under ModeSP).
	qkv []*tensor.Matrix
}

// workspace is one rank's scratch: every matrix and buffer a layer
// needs, reshaped for each use (tensor.Resize) and kept across layers
// and forwards.
type workspace struct {
	x, xn, qkv, attn, o, up, down tensor.Matrix
	// Attention of one (sequence, head): its q rows, its scores, and the
	// headers of its cached K and V.
	qh, scores, kc, vc tensor.Matrix
	// ModeSP: the head-parallel [q|k|v] rows the first all-to-all
	// delivers, the O GEMM's input gathered by the second, and both
	// all-to-alls' send sets and receive headers. A send set may be
	// rewritten once the SP group's next collective has returned
	// (comm.AllToAll), and the other set's all-to-all always runs
	// between two uses of one set.
	qkvAll, attnShard tensor.Matrix
	send              [2][][]float64
	recv              [][]float64
}

// NewCaches allocates one per-rank KV cache for the layout: each rank
// holds its KVRange heads. Base and shift engines built from the same
// Layout produce structurally identical caches — the KV cache invariance.
func NewCaches(lay Layout) []*kvcache.Cache {
	caches := make([]*kvcache.Cache, lay.World())
	for g := range caches {
		caches[g] = kvcache.NewCache(lay.Cfg.Layers, lay.KVRange(g).Len(), lay.Cfg.HeadDim())
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
		for _, f := range []struct {
			name      string
			got, want int
		}{{"Heads", c.Heads, lay.KVRange(g).Len()}, {"Layers", c.Layers, lay.Cfg.Layers}, {"HeadDim", c.HeadDim, lay.Cfg.HeadDim()}} {
			if f.got != f.want {
				return nil, fmt.Errorf("parallel: cache %d %s = %d, want %d", g, f.name, f.got, f.want)
			}
		}
	}
	e := &Engine{
		W: w, Lay: lay, Mode: mode, Caches: caches, world: comm.NewGroup(lay.World()),
		ranks: make([]rankPlan, lay.World()), ws: make([]workspace, lay.World()),
	}
	panels := make(map[[4]int][]*tensor.Matrix)
	for g := range e.ranks {
		e.ranks[g] = newRankPlan(w, lay, mode, g, panels)
	}
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

// newRankPlan derives global rank g's share of a mode's forward. It
// takes its QKV panels from panels, keyed by column ranges, building and
// adding them when no rank before it had the same ranges.
func newRankPlan(w *transformer.Weights, lay Layout, mode Mode, g int, panels map[[4]int][]*tensor.Matrix) rankPlan {
	p := rankPlan{q: lay.QRange(g), kv: lay.KVRange(g)}
	projQ, projKV, shards, shard := p.q, p.kv, lay.World(), g
	if mode == ModeSP {
		_, t := lay.Coords(g)
		projQ, projKV, shards, shard = lay.TPShardQRange(t), lay.TPShardKVRange(t), lay.TP, t
	}
	dh := lay.Cfg.HeadDim()
	p.qLo, p.qHi = projQ.Cols(dh)
	p.kvLo, p.kvHi = projKV.Cols(dh)
	per := lay.Cfg.FFN / shards
	p.ffnLo, p.ffnHi = shard*per, (shard+1)*per
	p.wo = make([]tensor.Matrix, len(w.Layers))
	p.wdown = make([]tensor.Matrix, len(w.Layers))
	for l, lw := range w.Layers {
		p.wo[l] = *tensor.ViewRows(lw.Wo, p.qLo, p.qHi)
		p.wdown[l] = *tensor.ViewRows(lw.Wdown, p.ffnLo, p.ffnHi)
	}
	key := [4]int{p.qLo, p.qHi, p.kvLo, p.kvHi}
	if p.qkv = panels[key]; p.qkv == nil {
		p.qkv = make([]*tensor.Matrix, len(w.Layers))
		for l, lw := range w.Layers {
			p.qkv[l] = qkvPanel(lw, p.qLo, p.qHi, p.kvLo, p.kvHi)
		}
		panels[key] = p.qkv
	}
	return p
}

// qkvPanel copies columns [qLo, qHi) of Wq and [kvLo, kvHi) of Wk and Wv
// side by side into one matrix, so that one GEMM projects q, k and v:
// each output column is the product its old column range gave, bit for
// bit (a column of a product depends only on that column of b).
func qkvPanel(lw transformer.LayerWeights, qLo, qHi, kvLo, kvHi int) *tensor.Matrix {
	qW, kvW := qHi-qLo, kvHi-kvLo
	m := tensor.New(lw.Wq.Rows, qW+2*kvW)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		copy(row[:qW], lw.Wq.Row(r)[qLo:qHi])
		copy(row[qW:qW+kvW], lw.Wk.Row(r)[kvLo:kvHi])
		copy(row[qW+kvW:], lw.Wv.Row(r)[kvLo:kvHi])
	}
	return m
}

// CommCounters returns global rank 0's collective calls and wire bytes:
// its world group, plus under ModeSP its SP group spGroups[0] and TP
// group tpGroups[0]. This is the per-rank, per-forward volume that
// perf.CommVolume prices (times Layers, in 8-byte elements).
func (e *Engine) CommCounters() comm.Counters {
	c := e.world.Stats().Snapshot()
	if e.Mode == ModeSP {
		for _, g := range []*comm.Group{e.spGroups[0], e.tpGroups[0]} {
			s := g.Stats().Snapshot()
			c.AllReduceCalls += s.AllReduceCalls
			c.AllReduceBytes += s.AllReduceBytes
			c.AllToAllCalls += s.AllToAllCalls
			c.AllToAllBytes += s.AllToAllBytes
		}
	}
	return c
}

// Forward runs one engine iteration over the batch on all ranks and
// returns the output embeddings [total tokens, d] in batch order, in a
// fresh matrix.
func (e *Engine) Forward(batch []transformer.Chunk) *tensor.Matrix {
	e.spans = transformer.FlattenInto(&e.x, e.spans, batch)
	e.prevs = e.prevs[:0]
	for _, c := range batch {
		// Every rank holds every sequence (head-parallel cache), so any
		// rank's cache answers the history length; use rank 0.
		e.prevs = append(e.prevs, e.Caches[0].Len(c.Seq))
	}
	switch e.Mode {
	case ModeTP:
		results := comm.RunGroup(e.world, func(g *comm.Group, rank int) *tensor.Matrix {
			return e.tpRank(g, rank, batch)
		})
		return results[0].Clone()
	case ModeSP:
		results := comm.RunGroup(e.world, func(_ *comm.Group, rank int) *tensor.Matrix {
			return e.spRank(rank, batch)
		})
		// Assemble the sequence-sharded output from the t=0 TP shard,
		// trimming the decode padding off the last slices.
		out := tensor.New(e.x.Rows, e.x.Cols)
		for s := 0; s < e.Lay.SP; s++ {
			part := results[e.Lay.RankOf(s, 0)]
			lo := min(s*len(part.Data), len(out.Data))
			copy(out.Data[lo:], part.Data)
		}
		return out
	default:
		panic(fmt.Sprintf("parallel: unknown mode %v", e.Mode))
	}
}

// normed makes dst the RMS-normalized copy of x that every block starts
// from (pre-norm) and returns it.
func normed(dst, x *tensor.Matrix) *tensor.Matrix {
	tensor.RMSNormRows(tensor.CopyInto(dst, x), 1e-6)
	return dst
}

// tpRank is the per-rank tensor-parallel forward: activations replicated,
// weights column/row sharded by head ownership, two all-reduces per layer
// (after attention-O and after MLP-down). The QKV GEMM reads the rank's
// panel; the other shards are read in place.
func (e *Engine) tpRank(g *comm.Group, rank int, batch []transformer.Chunk) *tensor.Matrix {
	p, w := &e.ranks[rank], &e.ws[rank]
	x := tensor.CopyInto(&w.x, &e.x)
	for l, lw := range e.W.Layers {
		xn := normed(&w.xn, x)
		qkv := tensor.MatMulInto(&w.qkv, xn, p.qkv[l])
		attn := e.attendBatch(rank, l, batch, qkv)
		partial := tensor.MatMulInto(&w.o, attn, &p.wo[l])
		g.AllReduce(rank, partial.Data)
		tensor.AddInPlace(x, partial)

		xn = normed(&w.xn, x)
		up := tensor.MatMulColsInto(&w.up, xn, lw.Wup, p.ffnLo, p.ffnHi)
		tensor.SiLURows(up)
		down := tensor.MatMulInto(&w.down, up, &p.wdown[l])
		g.AllReduce(rank, down.Data)
		tensor.AddInPlace(x, down)
	}
	return x
}

// spRank is the per-rank Algorithm 1 forward for the combined (SP, TP)
// configuration. Line numbers reference the paper's Algorithm 1.
func (e *Engine) spRank(gRank int, batch []transformer.Chunk) *tensor.Matrix {
	lay := e.Lay
	dh := lay.Cfg.HeadDim()
	s, t := lay.Coords(gRank)
	spg := e.spGroups[t]
	tpg := e.tpGroups[s]
	p, w := &e.ranks[gRank], &e.ws[gRank]
	if w.recv == nil {
		w.send = [2][][]float64{make([][]float64, lay.SP), make([][]float64, lay.SP)}
		w.recv = make([][]float64, lay.SP)
	}

	// Line 1: slice the (padded) input sequence across the SP group.
	n, d := e.x.Rows, e.x.Cols
	per := (n + lay.SP - 1) / lay.SP
	x := w.x.Resize(per, d)
	copy(x.Data, e.x.Data[min(s*per, n)*d:min((s+1)*per, n)*d])

	for l, lw := range e.W.Layers {
		xn := normed(&w.xn, x)

		// Line 3: QKV projection for this TP shard's heads, my rows only.
		qkv := tensor.MatMulInto(&w.qkv, xn, p.qkv[l])

		// Line 4: fused all-to-all within the SP group, switching from
		// sequence to head parallelism. KV heads needed by several
		// destinations are packed into each destination's buffer — the KV
		// cache replication of Section 3.2.1. Each buffer received holds
		// its source's rows of my [q|k|v] heads, and sources hold
		// contiguous row slices, so concatenating the buffers in rank
		// order gives the full sequence's rows.
		e.packQKV(w.send[0], p, t, qkv)
		recv := spg.AllToAllInto(s, w.send[0], w.recv)
		qkvAll := w.qkvAll.Resize(lay.SP*per, (p.q.Len()+2*p.kv.Len())*dh)
		for src, buf := range recv {
			copy(qkvAll.Data[src*len(buf):], buf)
		}

		// Line 5: head-parallel attention over the full (padded) sequence.
		attnAll := e.attendBatch(gRank, l, batch, qkvAll)

		// Line 6: all-to-all back to sequence parallelism: peer ds gets
		// rows [ds*per, (ds+1)*per) of my heads' output.
		rowsW := per * attnAll.Cols
		for ds := range w.send[1] {
			w.send[1][ds] = append(w.send[1][ds][:0], attnAll.Data[ds*rowsW:(ds+1)*rowsW]...)
		}
		recv = spg.AllToAllInto(s, w.send[1], w.recv)
		// Scatter received head columns into shard order for the O GEMM.
		attnShard := w.attnShard.Resize(per, p.qHi-p.qLo)
		for srcS, buf := range recv {
			src := &e.ranks[lay.RankOf(srcS, t)]
			off, width := src.q.Lo*dh-p.qLo, src.q.Len()*dh
			for r := 0; r < per; r++ {
				copy(attnShard.Row(r)[off:off+width], buf[r*width:(r+1)*width])
			}
		}

		// Lines 7-8: O projection on the shard's Wo rows + TP all-reduce.
		o := tensor.MatMulInto(&w.o, attnShard, &p.wo[l])
		if lay.TP > 1 {
			tpg.AllReduce(t, o.Data)
		}
		tensor.AddInPlace(x, o)

		// Lines 9-11: TP-sharded MLP on my sequence slice + all-reduce.
		xn = normed(&w.xn, x)
		up := tensor.MatMulColsInto(&w.up, xn, lw.Wup, p.ffnLo, p.ffnHi)
		tensor.SiLURows(up)
		down := tensor.MatMulInto(&w.down, up, &p.wdown[l])
		if lay.TP > 1 {
			tpg.AllReduce(t, down.Data)
		}
		tensor.AddInPlace(x, down)
	}
	return x
}

// packQKV refills send, one buffer per SP peer, with what the first
// all-to-all carries to that peer: for each of this rank's rows, the
// peer's q heads, then its k heads, then its v heads, cut from this TP
// shard's [q|k|v] projection (p is this rank's plan, t its shard). Each
// head range is one column range of qkv.
func (e *Engine) packQKV(send [][]float64, p *rankPlan, t int, qkv *tensor.Matrix) {
	dh := e.Lay.Cfg.HeadDim()
	kOff, vOff := p.qHi-p.qLo, p.qHi-p.qLo+p.kvHi-p.kvLo
	for ds := range send {
		dst := &e.ranks[e.Lay.RankOf(ds, t)]
		qOff, qW := dst.q.Lo*dh-p.qLo, dst.q.Len()*dh
		kvOff, kvW := dst.kv.Lo*dh-p.kvLo, dst.kv.Len()*dh
		buf := send[ds][:0]
		for r := 0; r < qkv.Rows; r++ {
			row := qkv.Row(r)
			buf = append(buf, row[qOff:qOff+qW]...)
			buf = append(buf, row[kOff+kvOff:kOff+kvOff+kvW]...)
			buf = append(buf, row[vOff+kvOff:vOff+kvOff+kvW]...)
		}
		send[ds] = buf
	}
}

// attendBatch appends the new K/V rows to the rank's cache and computes
// head-parallel causal attention for the rank's q heads over every real
// row of the batch, into the rank's attention output [qkv.Rows,
// heads*dh]. Each row of qkv is [q|k|v] of the rank's own heads. Rows
// beyond the batch's token count (decode padding under SP) come out zero
// and are never cached — the load-balancing padding of Section 3.2.1.
func (e *Engine) attendBatch(rank, layer int, batch []transformer.Chunk, qkv *tensor.Matrix) *tensor.Matrix {
	dh, gqa := e.Lay.Cfg.HeadDim(), e.Lay.Cfg.GQAGroup()
	p, w, cache := &e.ranks[rank], &e.ws[rank], e.Caches[rank]
	kOff := p.q.Len() * dh
	vOff := kOff + p.kv.Len()*dh
	out := w.attn.Resize(qkv.Rows, kOff)
	for bi, c := range batch {
		lo, hi := e.spans[bi][0], e.spans[bi][1]
		for j := range p.kv.Len() {
			cache.Reserve(c.Seq, layer, j, hi-lo)
			for row := lo; row < hi; row++ {
				r := qkv.Row(row)
				cache.Append(c.Seq, layer, j, r[kOff+j*dh:kOff+(j+1)*dh], r[vOff+j*dh:vOff+(j+1)*dh])
			}
		}
		for qi := range p.q.Len() {
			// q head Lo+qi reads KV head (Lo+qi)/gqa, which sits at its
			// offset from the rank's first KV head.
			cache.ViewsInto(&w.kc, &w.vc, c.Seq, layer, (p.q.Lo+qi)/gqa-p.kv.Lo)
			qSeq := tensor.SliceInto(&w.qh, qkv, lo, hi, qi*dh, (qi+1)*dh)
			transformer.AttendInto(out, lo, qi*dh, &w.scores, qSeq, &w.kc, &w.vc, e.prevs[bi])
		}
	}
	return out
}
