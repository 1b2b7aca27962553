package parallel

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

const tol = 1e-9

func newEngineT(t *testing.T, w *transformer.Weights, lay Layout, mode Mode, caches []*kvcache.Cache) *Engine {
	t.Helper()
	if caches == nil {
		caches = NewCaches(lay)
	}
	e, err := NewEngine(w, lay, mode, caches)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randBatch(rng *tensor.RNG, d int, tokens ...int) []transformer.Chunk {
	batch := make([]transformer.Chunk, len(tokens))
	for i, n := range tokens {
		batch[i] = transformer.Chunk{Seq: i, X: rng.RandMatrix(n, d, 1)}
	}
	return batch
}

// nextToken derives a deterministic next-token embedding from an output
// row, so multi-step decode is reproducible across engines.
func nextToken(out *tensor.Matrix, row int) *tensor.Matrix {
	x := tensor.SliceRows(out, row, row+1)
	tensor.RMSNormRows(x, 1e-6)
	return x
}

// --- Equivalence with the reference oracle ---

func TestTPMatchesReference(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		cfg := cfg8()
		w := transformer.NewWeights(cfg, 11)
		rng := tensor.NewRNG(100 + uint64(p))
		batch := randBatch(rng, cfg.Hidden, 5, 3)

		want := transformer.NewReference(w).Forward(batch)
		eng := newEngineT(t, w, Layout{Cfg: cfg, SP: 1, TP: p}, ModeTP, nil)
		got := eng.Forward(batch)
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("TP=%d diverged from reference: %g", p, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestPureSPMatchesReference(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		cfg := cfg8()
		w := transformer.NewWeights(cfg, 12)
		rng := tensor.NewRNG(200 + uint64(p))
		batch := randBatch(rng, cfg.Hidden, 7, 2)

		want := transformer.NewReference(w).Forward(batch)
		eng := newEngineT(t, w, Layout{Cfg: cfg, SP: p, TP: 1}, ModeSP, nil)
		got := eng.Forward(batch)
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("SP=%d diverged from reference: %g", p, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestCombinedSPTPMatchesReference(t *testing.T) {
	cases := []struct{ sp, tp int }{{2, 2}, {4, 2}, {2, 4}}
	for _, c := range cases {
		cfg := cfg8()
		w := transformer.NewWeights(cfg, 13)
		rng := tensor.NewRNG(300 + uint64(c.sp*10+c.tp))
		batch := randBatch(rng, cfg.Hidden, 6, 5)

		want := transformer.NewReference(w).Forward(batch)
		eng := newEngineT(t, w, Layout{Cfg: cfg, SP: c.sp, TP: c.tp}, ModeSP, nil)
		got := eng.Forward(batch)
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("(SP=%d,TP=%d) diverged: %g", c.sp, c.tp, tensor.MaxAbsDiff(got, want))
		}
	}
}

// The Figure 6 configuration itself: (SP=3, TP=2) with six heads.
func TestFigure6ConfigMatchesReference(t *testing.T) {
	cfg := cfg6()
	w := transformer.NewWeights(cfg, 14)
	rng := tensor.NewRNG(400)
	batch := randBatch(rng, cfg.Hidden, 9)

	want := transformer.NewReference(w).Forward(batch)
	eng := newEngineT(t, w, Layout{Cfg: cfg, SP: 3, TP: 2}, ModeSP, nil)
	got := eng.Forward(batch)
	if !tensor.Equal(got, want, tol) {
		t.Fatalf("figure-6 config diverged: %g", tensor.MaxAbsDiff(got, want))
	}
}

// GQA with KV replication: 8 ranks, 2 KV heads (Qwen-30B-A3B situation).
func TestSPWithKVReplicationMatchesReference(t *testing.T) {
	cfg := transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 16}
	w := transformer.NewWeights(cfg, 15)
	rng := tensor.NewRNG(500)
	batch := randBatch(rng, cfg.Hidden, 6, 4)

	want := transformer.NewReference(w).Forward(batch)
	for _, lay := range []Layout{{Cfg: cfg, SP: 8, TP: 1}, {Cfg: cfg, SP: 4, TP: 2}, {Cfg: cfg, SP: 2, TP: 4}} {
		eng := newEngineT(t, w, lay, ModeSP, nil)
		got := eng.Forward(batch)
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("(SP=%d,TP=%d) with replication diverged: %g", lay.SP, lay.TP, tensor.MaxAbsDiff(got, want))
		}
	}
}

// Decode under SP with batch smaller than SP degree exercises padding
// (Section 3.2.1 load balancing).
func TestSPDecodePaddingSmallBatch(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 16)
	rng := tensor.NewRNG(600)
	prompt := rng.RandMatrix(5, cfg.Hidden, 1)

	ref := transformer.NewReference(w)
	eng := newEngineT(t, w, Layout{Cfg: cfg, SP: 8, TP: 1}, ModeSP, nil)

	refOut := ref.Forward([]transformer.Chunk{{Seq: 0, X: prompt}})
	engOut := eng.Forward([]transformer.Chunk{{Seq: 0, X: prompt}})
	if !tensor.Equal(engOut, refOut, tol) {
		t.Fatalf("prefill diverged: %g", tensor.MaxAbsDiff(engOut, refOut))
	}
	// Three decode steps with batch size 1 (< SP=8): heavy padding.
	for step := 0; step < 3; step++ {
		tok := nextToken(refOut, refOut.Rows-1)
		refOut = ref.Forward([]transformer.Chunk{{Seq: 0, X: tok}})
		engOut = eng.Forward([]transformer.Chunk{{Seq: 0, X: tok.Clone()}})
		if !tensor.Equal(engOut, refOut, tol) {
			t.Fatalf("decode step %d diverged: %g", step, tensor.MaxAbsDiff(engOut, refOut))
		}
	}
}

// --- KV cache invariance (Figure 5 / Section 3.3.1) ---

// After identical prefills, the base (SP,TP) engine and the shift (TP=P)
// engine built from the same Layout hold identical per-rank KV caches.
func TestKVCacheInvarianceBaseVsShift(t *testing.T) {
	cases := []struct{ sp, tp int }{{2, 2}, {4, 2}, {8, 1}, {2, 4}}
	for _, c := range cases {
		cfg := cfg8()
		w := transformer.NewWeights(cfg, 17)
		lay := Layout{Cfg: cfg, SP: c.sp, TP: c.tp}
		rng := tensor.NewRNG(700 + uint64(c.sp*10+c.tp))
		batch := randBatch(rng, cfg.Hidden, 6, 3)

		base := newEngineT(t, w, lay, ModeSP, nil)
		shift := newEngineT(t, w, lay, ModeTP, nil)
		base.Forward(batch)
		shift.Forward(cloneBatch(batch))

		for g := 0; g < lay.World(); g++ {
			if !kvcache.Equal(base.Caches[g], shift.Caches[g], tol) {
				t.Fatalf("(SP=%d,TP=%d) rank %d cache differs between base and shift", c.sp, c.tp, g)
			}
		}
	}
}

// Without the Figure-6 head permutation the invariance genuinely breaks:
// a natural-order TP engine holds different per-rank caches than the
// mixed base config.
func TestKVCacheInvarianceRequiresHeadMapping(t *testing.T) {
	cfg := cfg6()
	w := transformer.NewWeights(cfg, 18)
	rng := tensor.NewRNG(800)
	batch := randBatch(rng, cfg.Hidden, 8)

	base := newEngineT(t, w, Layout{Cfg: cfg, SP: 3, TP: 2}, ModeSP, nil)
	naturalTP := newEngineT(t, w, Layout{Cfg: cfg, SP: 1, TP: 6}, ModeTP, nil)
	base.Forward(batch)
	naturalTP.Forward(cloneBatch(batch))

	same := true
	for g := 0; g < 6; g++ {
		if !kvcache.Equal(base.Caches[g], naturalTP.Caches[g], tol) {
			same = false
		}
	}
	if same {
		t.Fatal("natural head order should NOT be cache-invariant with (SP=3,TP=2) base")
	}
}

// The headline functional claim: prefill under the base config, decode
// under the shift config sharing the same KV cache, and the outputs match
// an unshifted reference run exactly.
func TestMidRequestShiftLossless(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 19)
	lay := Layout{Cfg: cfg, SP: 4, TP: 2}
	rng := tensor.NewRNG(900)
	prompt := rng.RandMatrix(9, cfg.Hidden, 1)

	base, shift, err := NewPair(w, lay)
	if err != nil {
		t.Fatal(err)
	}
	ref := transformer.NewReference(w)

	refOut := ref.Forward([]transformer.Chunk{{Seq: 0, X: prompt}})
	baseOut := base.Forward([]transformer.Chunk{{Seq: 0, X: prompt.Clone()}})
	if !tensor.Equal(baseOut, refOut, tol) {
		t.Fatalf("base prefill diverged: %g", tensor.MaxAbsDiff(baseOut, refOut))
	}
	// Alternate decode steps between shift (TP) and base (SP) engines.
	engines := []*Engine{shift, base, shift, base}
	for step, eng := range engines {
		tok := nextToken(refOut, refOut.Rows-1)
		refOut = ref.Forward([]transformer.Chunk{{Seq: 0, X: tok}})
		engOut := eng.Forward([]transformer.Chunk{{Seq: 0, X: tok.Clone()}})
		if !tensor.Equal(engOut, refOut, tol) {
			t.Fatalf("step %d on %v engine diverged: %g", step, eng.Mode, tensor.MaxAbsDiff(engOut, refOut))
		}
	}
}

// NewPair's engines share the caches and each rank's workspace, and
// computing out of one workspace changes no bit: a pair and two engines
// with workspaces of their own, over caches of their own, give the same
// outputs and caches through prefills and decode steps of changing
// shapes, alternating between the configurations.
func TestPairSharesWorkspacesBitExactly(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 24)
	lay := Layout{Cfg: cfg, SP: 2, TP: 2}
	base, shift, err := NewPair(w, lay)
	if err != nil {
		t.Fatal(err)
	}
	if base.Mode != ModeSP || shift.Mode != ModeTP || &base.Caches[0] != &shift.Caches[0] || &base.ws[0] != &shift.ws[0] {
		t.Fatal("NewPair's engines are not a base and a shift engine over one set of caches and workspaces")
	}
	caches := NewCaches(lay)
	own := map[*Engine]*Engine{
		base:  newEngineT(t, w, lay, ModeSP, caches),
		shift: newEngineT(t, w, lay, ModeTP, caches),
	}
	rng := tensor.NewRNG(2400)
	steps := []struct {
		eng    *Engine
		tokens []int
	}{{base, []int{7, 3}}, {shift, []int{1, 1}}, {base, []int{1, 1}}, {shift, []int{5, 1, 9}}, {base, []int{2, 1, 1}}}
	for i, st := range steps {
		batch := randBatch(rng, cfg.Hidden, st.tokens...)
		got, want := st.eng.Forward(cloneBatch(batch)), own[st.eng].Forward(batch)
		if !tensor.Equal(got, want, 0) {
			t.Fatalf("step %d on %v: pair output differs by %g", i, st.eng.Mode, tensor.MaxAbsDiff(got, want))
		}
	}
	for g := range caches {
		if !kvcache.Equal(base.Caches[g], caches[g], 0) {
			t.Fatalf("rank %d: pair cache differs", g)
		}
	}
}

// --- Communication pattern checks (Table 1 / Table 2 shapes) ---

func TestTPDoesAllReducesNotAllToAll(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 20)
	eng := newEngineT(t, w, Layout{Cfg: cfg, SP: 1, TP: 4}, ModeTP, nil)
	rng := tensor.NewRNG(1000)
	eng.Forward(randBatch(rng, cfg.Hidden, 4))
	c := eng.CommCounters()
	if c.AllReduceCalls != 2*cfg.Layers {
		t.Fatalf("TP all-reduce calls = %d, want %d", c.AllReduceCalls, 2*cfg.Layers)
	}
	if c.AllToAllCalls != 0 {
		t.Fatalf("TP should not all-to-all, got %d", c.AllToAllCalls)
	}
}

func TestPureSPDoesAllToAllsNotAllReduce(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 21)
	eng := newEngineT(t, w, Layout{Cfg: cfg, SP: 4, TP: 1}, ModeSP, nil)
	rng := tensor.NewRNG(1100)
	eng.Forward(randBatch(rng, cfg.Hidden, 8))
	c := eng.CommCounters()
	if c.AllToAllCalls != 2*cfg.Layers {
		t.Fatalf("SP all-to-all calls = %d, want %d", c.AllToAllCalls, 2*cfg.Layers)
	}
	if c.AllReduceCalls != 0 {
		t.Fatalf("pure SP should not all-reduce, got %d", c.AllReduceCalls)
	}
}

func TestCombinedDoesBoth(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 22)
	lay := Layout{Cfg: cfg, SP: 2, TP: 2}
	eng := newEngineT(t, w, lay, ModeSP, nil)
	rng := tensor.NewRNG(1200)
	eng.Forward(randBatch(rng, cfg.Hidden, 8))
	c := eng.CommCounters()
	// Counters are rank 0's: in its SP group it does 2 all-to-alls per
	// layer, in its TP group 2 all-reduces per layer.
	if want := 2 * cfg.Layers; c.AllToAllCalls != want {
		t.Fatalf("combined a2a calls = %d, want %d", c.AllToAllCalls, want)
	}
	if want := 2 * cfg.Layers; c.AllReduceCalls != want {
		t.Fatalf("combined ar calls = %d, want %d", c.AllReduceCalls, want)
	}
}

// --- Property tests ---

// Random valid configurations all match the reference.
func TestQuickParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, spRaw, tpRaw, tokRaw uint8) bool {
		sp := 1 << (int(spRaw) % 3) // 1, 2, 4
		tp := 1 << (int(tpRaw) % 2) // 1, 2
		cfg := transformer.Config{Layers: 1, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 16}
		lay := Layout{Cfg: cfg, SP: sp, TP: tp}
		if lay.Validate() != nil {
			return true
		}
		w := transformer.NewWeights(cfg, seed)
		rng := tensor.NewRNG(seed ^ 0xabcdef)
		tokens := 1 + int(tokRaw)%9
		batch := randBatch(rng, cfg.Hidden, tokens)

		want := transformer.NewReference(w).Forward(batch)
		mode := ModeSP
		if sp == 1 {
			mode = ModeTP
		}
		caches := NewCaches(lay)
		eng, err := NewEngine(w, lay, mode, caches)
		if err != nil {
			return false
		}
		got := eng.Forward(cloneBatch(batch))
		return tensor.Equal(got, want, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- Constructor validation ---

func TestNewEngineRejectsMismatches(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 23)
	lay := Layout{Cfg: cfg, SP: 2, TP: 2}
	if _, err := NewEngine(w, lay, ModeSP, nil); err == nil {
		t.Fatal("expected error for missing caches")
	}
	other := transformer.NewWeights(cfg6(), 23)
	if _, err := NewEngine(other, lay, ModeSP, NewCaches(lay)); err == nil {
		t.Fatal("expected error for config mismatch")
	}
	if _, _, err := NewPair(other, lay); err == nil {
		t.Fatal("expected a NewPair error for config mismatch")
	}
	badLay := Layout{Cfg: cfg, SP: 3, TP: 1}
	if _, err := NewEngine(w, badLay, ModeSP, nil); err == nil {
		t.Fatal("expected error for invalid layout")
	}
	if _, _, err := NewPair(w, badLay); err == nil {
		t.Fatal("expected a NewPair error for invalid layout")
	}
	wrongCaches := NewCaches(Layout{Cfg: cfg, SP: 1, TP: 2})
	if _, err := NewEngine(w, lay, ModeSP, wrongCaches); err == nil {
		t.Fatal("expected error for wrong cache count")
	}
	// One misshapen cache per field: the error names the cache, the
	// field, the value it got and the value it wanted.
	heads, dh := lay.KVRange(3).Len(), cfg.HeadDim()
	for _, c := range []struct {
		bad  *kvcache.Cache
		want string
	}{
		{kvcache.NewCache(cfg.Layers, heads+1, dh), fmt.Sprintf("parallel: cache 3 Heads = %d, want %d", heads+1, heads)},
		{kvcache.NewCache(cfg.Layers+1, heads, dh), fmt.Sprintf("parallel: cache 3 Layers = %d, want %d", cfg.Layers+1, cfg.Layers)},
		{kvcache.NewCache(cfg.Layers, heads, dh+1), fmt.Sprintf("parallel: cache 3 HeadDim = %d, want %d", dh+1, dh)},
	} {
		caches := NewCaches(lay)
		caches[3] = c.bad
		if _, err := NewEngine(w, lay, ModeSP, caches); err == nil || err.Error() != c.want {
			t.Errorf("NewEngine error = %v, want %q", err, c.want)
		}
	}
}

func cloneBatch(batch []transformer.Chunk) []transformer.Chunk {
	out := make([]transformer.Chunk, len(batch))
	for i, c := range batch {
		out[i] = transformer.Chunk{Seq: c.Seq, X: c.X.Clone()}
	}
	return out
}

// A forward returns a fresh matrix while every rank computes out of a
// workspace the next forward rewrites: outputs must survive later
// forwards of both shapes (a decode step, then a larger prefill that
// regrows the workspaces) and still match the reference step for step.
func TestForwardOutputOutlivesLaterForwards(t *testing.T) {
	cfg := cfg8()
	w := transformer.NewWeights(cfg, 31)
	for _, mode := range []Mode{ModeTP, ModeSP} {
		eng := newEngineT(t, w, Layout{Cfg: cfg, SP: 2, TP: 2}, mode, nil)
		ref := transformer.NewReference(w)
		rng := tensor.NewRNG(32)
		prefill := randBatch(rng, cfg.Hidden, 5, 3)
		steps := [][]transformer.Chunk{prefill, nil, {{Seq: 2, X: rng.RandMatrix(11, cfg.Hidden, 1)}}}
		var outs, kept []*tensor.Matrix
		for i, batch := range steps {
			if batch == nil {
				batch = []transformer.Chunk{{Seq: 0, X: nextToken(outs[0], 4)}, {Seq: 1, X: nextToken(outs[0], 7)}}
			}
			want := ref.Forward(cloneBatch(batch))
			got := eng.Forward(cloneBatch(batch))
			if !tensor.Equal(got, want, tol) {
				t.Fatalf("%v step %d diverged from reference: %g", mode, i, tensor.MaxAbsDiff(got, want))
			}
			outs, kept = append(outs, got), append(kept, got.Clone())
		}
		for i := range outs {
			if !tensor.Equal(outs[i], kept[i], 0) {
				t.Fatalf("%v step %d output changed under later forwards", mode, i)
			}
		}
	}
}

// Each rank's QKV panel is [Wq | Wk | Wv] over its column ranges, and
// the ranks of one engine with equal ranges share one copy: under
// ModeSP the SP ranks of a TP shard, under ModeTP (every rank its own
// heads) nobody. So the base engine of (SP=4, TP=2) holds 2 panels per
// layer and the shift engine 8.
func TestQKVPanelsSharedByEqualRanges(t *testing.T) {
	lay := Layout{Cfg: transformer.Config{Layers: 2, Hidden: 64, QHeads: 8, KVHeads: 2, FFN: 32}, SP: 4, TP: 2}
	w := transformer.NewWeights(lay.Cfg, 3)
	for _, c := range []struct {
		mode   Mode
		panels int
	}{{ModeSP, 2}, {ModeTP, 8}} {
		e := newEngineT(t, w, lay, c.mode, nil)
		for l, lw := range w.Layers {
			distinct := map[*tensor.Matrix]bool{}
			for g, p := range e.ranks {
				want := concatCols(tensor.SliceCols(lw.Wq, p.qLo, p.qHi),
					tensor.SliceCols(lw.Wk, p.kvLo, p.kvHi), tensor.SliceCols(lw.Wv, p.kvLo, p.kvHi))
				if !tensor.Equal(p.qkv[l], want, 0) {
					t.Fatalf("%v rank %d layer %d: panel is not [Wq | Wk | Wv] over its ranges", c.mode, g, l)
				}
				distinct[p.qkv[l]] = true
				for h, q := range e.ranks[:g] {
					same := q.qLo == p.qLo && q.qHi == p.qHi && q.kvLo == p.kvLo && q.kvHi == p.kvHi
					if same != (q.qkv[l] == p.qkv[l]) {
						t.Fatalf("%v layer %d: ranks %d and %d: equal ranges %v, shared panel %v", c.mode, l, h, g, same, !same)
					}
				}
			}
			if len(distinct) != c.panels {
				t.Fatalf("%v layer %d: %d panels, want %d", c.mode, l, len(distinct), c.panels)
			}
		}
	}
}

// concatCols puts the given matrices side by side.
func concatCols(ms ...*tensor.Matrix) *tensor.Matrix {
	out := &tensor.Matrix{Rows: ms[0].Rows}
	for _, m := range ms {
		out.Cols += m.Cols
	}
	for i := 0; i < out.Rows; i++ {
		for _, m := range ms {
			out.Data = append(out.Data, m.Row(i)...)
		}
	}
	return out
}
