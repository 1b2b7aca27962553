// Package parallel implements the paper's distributed transformer
// forwards on simulated GPUs: tensor parallelism (TP), Ulysses sequence
// parallelism (SP) generalized for inference (GQA, KV cache replication,
// decode padding — Section 3.2), and the combined (SP, TP) Algorithm 1.
//
// The central object is Layout: the process-to-head mapping of Figure 6.
// A base configuration (SP, TP) induces an interleaved attention head
// ordering; the shift configuration (1, SP*TP) must adopt that same
// ordering for the KV cache to remain invariant. Layout encodes the
// mapping once, as one contiguous HeadRange per rank and per TP shard,
// and both configurations read head ownership from it.
package parallel

import (
	"fmt"

	"repro/internal/transformer"
)

// Layout is a base parallel configuration (SP, TP) over a model. It
// determines, for every global rank, which attention heads that rank owns
// during head-parallel attention — identically for the base forward and
// for the full-TP shift forward.
type Layout struct {
	Cfg transformer.Config
	SP  int
	TP  int
}

// World returns the total number of ranks SP*TP.
func (l Layout) World() int { return l.SP * l.TP }

// String renders like the paper: "(SP=4,TP=2)".
func (l Layout) String() string {
	return fmt.Sprintf("(SP=%d,TP=%d)", l.SP, l.TP)
}

// Validate reports whether the layout's divisibility requirements hold:
// q heads split evenly over ranks, TP shards of q heads and FFN exist.
func (l Layout) Validate() error {
	if err := l.Cfg.Validate(); err != nil {
		return err
	}
	if l.SP <= 0 || l.TP <= 0 {
		return fmt.Errorf("parallel: non-positive degrees SP=%d TP=%d", l.SP, l.TP)
	}
	p := l.World()
	if l.Cfg.QHeads%p != 0 {
		return fmt.Errorf("parallel: q heads %d %% world %d != 0", l.Cfg.QHeads, p)
	}
	if l.Cfg.FFN%p != 0 {
		// The shift config shards the MLP P ways; the base config TP ways
		// (TP divides P, so P-divisibility covers both).
		return fmt.Errorf("parallel: ffn %d %% world %d != 0", l.Cfg.FFN, p)
	}
	return nil
}

// Coords returns the (s, t) grid coordinates of global rank g, following
// the paper's grouping: TP groups are consecutive ranks, SP groups are
// strided. g = s*TP + t.
func (l Layout) Coords(g int) (s, t int) {
	l.checkRank(g)
	return g / l.TP, g % l.TP
}

// RankOf returns the global rank at grid coordinates (s, t).
func (l Layout) RankOf(s, t int) int {
	if s < 0 || s >= l.SP || t < 0 || t >= l.TP {
		panic(fmt.Sprintf("parallel: coords (%d,%d) out of grid (%d,%d)", s, t, l.SP, l.TP))
	}
	return s*l.TP + t
}

func (l Layout) checkRank(g int) {
	if g < 0 || g >= l.World() {
		panic(fmt.Sprintf("parallel: rank %d out of world %d", g, l.World()))
	}
}

// HeadBlock returns the attention head block owned by global rank g
// after the SP all-to-all: b(g) = t*SP + s (Figure 6). With SP=1 or TP=1
// this degenerates to the identity, recovering the natural TP ordering.
func (l Layout) HeadBlock(g int) int {
	s, t := l.Coords(g)
	return t*l.SP + s
}

// HeadRange is the contiguous range [Lo, Hi) of attention heads a rank
// or TP shard owns. Every head set of a Layout is one, so a rank's share
// of Wq/Wk/Wv is one column range and of Wo one row range.
type HeadRange struct{ Lo, Hi int }

// Len returns the number of heads in the range.
func (r HeadRange) Len() int { return r.Hi - r.Lo }

// Cols returns the [lo, hi) column (or row) range the heads cover in a
// weight of dh-wide head blocks.
func (r HeadRange) Cols(dh int) (lo, hi int) { return r.Lo * dh, r.Hi * dh }

// QRange returns the q heads owned by rank g during head-parallel
// attention: block HeadBlock(g) of World() equal blocks.
func (l Layout) QRange(g int) HeadRange {
	per := l.Cfg.QHeads / l.World()
	b := l.HeadBlock(g)
	return HeadRange{b * per, (b + 1) * per}
}

// KVRange returns the KV heads rank g must hold: those its q heads read
// under GQA. When the world size exceeds the KV head count, several ranks
// get the same KV head — that is the KV cache replication of Section
// 3.2.1, and it falls out of this derivation rather than being
// special-cased.
func (l Layout) KVRange(g int) HeadRange { return l.kvOf(l.QRange(g)) }

// TPShardQRange returns the q heads computed by TP shard t in the QKV
// projection of Algorithm 1 line 3: [t*h/TP, (t+1)*h/TP), the union of
// QRange over the shard's SP group, which the SP all-to-all then
// scatters across that group.
func (l Layout) TPShardQRange(t int) HeadRange {
	per := l.Cfg.QHeads / l.TP
	return HeadRange{t * per, (t + 1) * per}
}

// TPShardKVRange returns the KV heads TP shard t must project: the union
// of KVRange over the shard's SP group. Replicated heads appear once here
// (projected once, then fanned out in the all-to-all send buffers).
func (l Layout) TPShardKVRange(t int) HeadRange { return l.kvOf(l.TPShardQRange(t)) }

// kvOf is the GQA image {q/gqa : q in qs} of a q head range.
func (l Layout) kvOf(qs HeadRange) HeadRange {
	gqa := l.Cfg.GQAGroup()
	return HeadRange{qs.Lo / gqa, (qs.Hi-1)/gqa + 1}
}

// HeadOrder returns, for heads in natural order 0..h-1, the owning rank
// of each head block — the paper's example: (SP=3, TP=2) yields block
// owners (0, 2, 4, 1, 3, 5).
func (l Layout) HeadOrder() []int {
	blocks := l.World()
	owners := make([]int, blocks)
	for g := 0; g < blocks; g++ {
		owners[l.HeadBlock(g)] = g
	}
	return owners
}
