// Package integration ties the reproduction's layers together: the
// functional engines (internal/parallel, internal/core), the analytic
// cost model (internal/perf), and the serving simulator (internal/serve)
// must agree wherever their domains overlap.
package integration

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transformer"
	"repro/internal/workload"
)

const tol = 1e-9

// A full serving scenario on the functional engine: three sequences
// arrive staggered, prefill in chunks, decode in shared batches, finish
// at different times — with Algorithm 2 switching configurations
// throughout — and every output matches the reference oracle.
func TestFunctionalServingScenario(t *testing.T) {
	cfg := transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 32}
	w := transformer.NewWeights(cfg, 99)
	lay := parallel.Layout{Cfg: cfg, SP: 4, TP: 2}
	shift, err := core.New(w, lay, core.Options{Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := transformer.NewReference(w)
	rng := tensor.NewRNG(123)

	prompts := []*tensor.Matrix{
		rng.RandMatrix(9, 16, 1),
		rng.RandMatrix(6, 16, 1),
		rng.RandMatrix(4, 16, 1),
	}
	// Iteration schedule mimicking continuous batching with chunked
	// prefill: seq 0 prefills in two chunks; seq 1 joins mid-flight;
	// seq 2 joins during decode of the others.
	steps := [][]transformer.Chunk{
		{{Seq: 0, X: tensor.SliceRows(prompts[0], 0, 5)}},
		{{Seq: 0, X: tensor.SliceRows(prompts[0], 5, 9)}, {Seq: 1, X: tensor.SliceRows(prompts[1], 0, 3)}},
		{{Seq: 1, X: tensor.SliceRows(prompts[1], 3, 6)}, {Seq: 0, X: rng.RandMatrix(1, 16, 1)}},
		{{Seq: 0, X: rng.RandMatrix(1, 16, 1)}, {Seq: 1, X: rng.RandMatrix(1, 16, 1)}, {Seq: 2, X: prompts[2]}},
		{{Seq: 0, X: rng.RandMatrix(1, 16, 1)}, {Seq: 1, X: rng.RandMatrix(1, 16, 1)}, {Seq: 2, X: rng.RandMatrix(1, 16, 1)}},
		{{Seq: 2, X: rng.RandMatrix(1, 16, 1)}},
	}
	for i, batch := range steps {
		want := ref.Forward(cloneBatch(batch))
		got := shift.Forward(cloneBatch(batch))
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("step %d diverged: %g", i, tensor.MaxAbsDiff(got, want))
		}
	}
	base, shifted := shift.Iterations()
	if base == 0 || shifted == 0 {
		t.Fatalf("expected both configs to run (base=%d shift=%d)", base, shifted)
	}
	// Caches across all ranks hold all three sequences.
	for g, c := range shift.Caches() {
		if len(c.Sequences()) != 3 {
			t.Fatalf("rank %d caches %d sequences", g, len(c.Sequences()))
		}
	}
}

// perf.CommVolume, the per-rank volume the cost model prices, must equal
// the wire bytes the functional engine's rank 0 counts, exactly: both
// are integer element counts (8 bytes each on the functional side). The
// grid covers pure SP, pure TP and combined layouts in both modes (ModeTP
// is priced as TP over the whole world), KV replication (KVHeads below
// the world), decode padding (n not a multiple of SP), and, per engine,
// an n-token prefill, n-1 one-token prompts and a decode step of n
// single-token chunks.
func TestCommVolumeMatchesCountedWireBytes(t *testing.T) {
	for _, grid := range [][2]int{{2, 1}, {4, 1}, {8, 1}, {1, 2}, {1, 4}, {1, 8}, {2, 2}, {4, 2}, {2, 4}} {
		for _, mode := range []parallel.Mode{parallel.ModeSP, parallel.ModeTP} {
			for _, kv := range []int{2, 4, 8} {
				for _, n := range []int{3, 13, 16} {
					cfg := transformer.Config{Layers: 2, Hidden: 32, QHeads: 8, KVHeads: kv, FFN: 32}
					lay := parallel.Layout{Cfg: cfg, SP: grid[0], TP: grid[1]}
					checkCommVolume(t, lay, mode, n)
				}
			}
		}
	}
}

func checkCommVolume(t *testing.T, lay parallel.Layout, mode parallel.Mode, n int) {
	t.Helper()
	cfg := lay.Cfg
	m := model.Config{Layers: cfg.Layers, Hidden: cfg.Hidden, QHeads: cfg.QHeads, KVHeads: cfg.KVHeads, FFN: cfg.FFN}
	par := perf.Parallelism{SP: lay.SP, TP: lay.TP}
	if mode == parallel.ModeTP {
		par = perf.Parallelism{SP: 1, TP: lay.World()}
	}
	eng, err := parallel.NewEngine(transformer.NewWeights(cfg, 5), lay, mode, parallel.NewCaches(lay))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(6)
	oneToken := func(from, to int) []transformer.Chunk {
		var batch []transformer.Chunk
		for seq := from; seq < to; seq++ {
			batch = append(batch, transformer.Chunk{Seq: seq, X: rng.RandMatrix(1, cfg.Hidden, 1)})
		}
		return batch
	}
	steps := [][]transformer.Chunk{
		{{Seq: 0, X: rng.RandMatrix(n, cfg.Hidden, 1)}}, // prefill
		oneToken(1, n), // one-token prompts
		oneToken(0, n), // decode
	}
	calls := func(p int) int {
		if p > 1 {
			return 2 * cfg.Layers
		}
		return 0
	}
	var want comm.Counters
	for i, batch := range steps {
		eng.Forward(batch)
		ar, a2a := perf.CommVolume(m, par, transformer.BatchTokens(batch))
		want.AllReduceCalls += calls(par.TP)
		want.AllReduceBytes += float64(cfg.Layers) * ar * 8
		want.AllToAllCalls += calls(par.SP)
		want.AllToAllBytes += float64(cfg.Layers) * a2a * 8
		if got := eng.CommCounters(); got != want {
			t.Errorf("%v %v KVHeads=%d n=%d after step %d: counted %+v, CommVolume %+v", lay, mode, cfg.KVHeads, n, i, got, want)
		}
	}
}

// End-to-end determinism: the same seed yields identical simulation
// results, request by request.
func TestSimulatorDeterminism(t *testing.T) {
	cm := perf.MustNew(hw.P5enNode(), model.Llama70B(), perf.DefaultParams())
	run := func() []serve.RequestMetrics {
		cl := serve.SingleEngine("shift", serve.Config{
			CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift,
		})
		tr := trace.Bursty(7, 60*time.Second)
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRequest
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic request count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical runs", i)
		}
	}
}

// Full pipeline sanity: every standard cluster serves the quick Azure
// twin completely — no rejections, no metric pathologies, conservation
// of tokens.
func TestAllClustersServeAzureTwin(t *testing.T) {
	cm := perf.MustNew(hw.P5enNode(), model.Llama70B(), perf.DefaultParams())
	clusters, err := serve.StandardClusters(cm, perf.Parallelism{SP: 8, TP: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	full := trace.AzureCode(42)
	var reqs []workload.Request
	cut := full.Duration() / 10
	for _, r := range full.Requests {
		if r.Arrival <= cut {
			reqs = append(reqs, r)
		}
	}
	tr := &workload.Trace{Name: "azure-cut", Requests: reqs}
	for name, cl := range clusters {
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rejected != 0 {
			t.Errorf("%s rejected %d requests", name, res.Rejected)
		}
		if res.TotalTokens != tr.TotalTokens() {
			t.Errorf("%s served %d tokens, trace has %d", name, res.TotalTokens, tr.TotalTokens())
		}
		for _, m := range res.PerRequest {
			if m.TTFT <= 0 || m.Completion < m.TTFT || m.TPOT < 0 {
				t.Errorf("%s request %d pathological: %+v", name, m.ID, m)
			}
		}
	}
}

// The KV invariance must also hold when the functional engines use the
// replication path end to end (few KV heads, full node).
func TestInvarianceWithReplicationEndToEnd(t *testing.T) {
	cfg := transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 16}
	w := transformer.NewWeights(cfg, 31)
	lay := parallel.Layout{Cfg: cfg, SP: 2, TP: 4}
	shift, err := core.New(w, lay, core.Options{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := transformer.NewReference(w)
	rng := tensor.NewRNG(32)

	prompt := rng.RandMatrix(7, 16, 1)
	refOut := ref.Forward([]transformer.Chunk{{Seq: 0, X: prompt}})
	out := shift.Forward([]transformer.Chunk{{Seq: 0, X: prompt.Clone()}})
	if !tensor.Equal(out, refOut, tol) {
		t.Fatalf("replicated prefill diverged: %g", tensor.MaxAbsDiff(out, refOut))
	}
	for i := 0; i < 3; i++ {
		tok := tensor.SliceRows(refOut, refOut.Rows-1, refOut.Rows)
		tensor.RMSNormRows(tok, 1e-6)
		refOut = ref.Forward([]transformer.Chunk{{Seq: 0, X: tok}})
		out = shift.Forward([]transformer.Chunk{{Seq: 0, X: tok.Clone()}})
		if !tensor.Equal(out, refOut, tol) {
			t.Fatalf("replicated decode %d diverged: %g", i, tensor.MaxAbsDiff(out, refOut))
		}
	}
	// Reference cache contents equal the union of rank caches: check one
	// rank's kv head 0 against the oracle.
	g0 := shift.Caches()[0]
	kvHead := parallel.Layout{Cfg: cfg, SP: 2, TP: 4}.KVRange(0).Lo
	if !tensor.Equal(g0.K(0, 0, 0), ref.Cache.K(0, 0, kvHead), tol) {
		t.Fatal("rank 0 cache does not match oracle's corresponding kv head")
	}
}

func cloneBatch(batch []transformer.Chunk) []transformer.Chunk {
	out := make([]transformer.Chunk, len(batch))
	for i, c := range batch {
		out[i] = transformer.Chunk{Seq: c.Seq, X: c.X.Clone()}
	}
	return out
}
