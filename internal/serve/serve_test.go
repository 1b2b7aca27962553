package serve

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/specdec"
	"repro/internal/workload"
)

func llamaCM(t *testing.T) *perf.CostModel {
	t.Helper()
	return perf.MustNew(hw.P5enNode(), model.Llama70B(), perf.DefaultParams())
}

func tp8Cfg(cm *perf.CostModel) Config {
	return Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}}
}

func shiftCfg(cm *perf.CostModel) Config {
	return Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: StrategyShift}
}

// closedThroughput saturates cl with a closed batch of n identical
// requests and returns its combined tokens/second (Section 4.3.1's
// peak-throughput methodology, as the experiments measure it).
func closedThroughput(t *testing.T, cl Cluster, n, inTok, outTok int) float64 {
	t.Helper()
	res, err := cl.Run(workload.Closed("closed", n, inTok, outTok))
	if err != nil {
		t.Fatal(err)
	}
	tput, err := res.BatchThroughput()
	if err != nil {
		t.Fatal(err)
	}
	return tput
}

// attachIters attaches a fresh obs stream to e and returns it, so a
// test can read e's per-iteration records.
func attachIters(e *Engine) *obs.Stream {
	s := obs.NewObserver().Stream("", "engine")
	e.attachStream(s)
	return s
}

// seriesTotal sums an observer's throughput series over every bucket.
func seriesTotal(o *obs.Observer) int {
	total := 0.0
	for _, b := range o.ThroughputSeries(time.Second).Buckets() {
		total += b
	}
	return int(total)
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ChunkBudget != DefaultChunkBudget || c.MaxSeqs != DefaultMaxSeqs ||
		c.BlockTokens != DefaultBlockTokens || c.ShiftThreshold != perf.DefaultShiftThreshold {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestConfigRejectsNegativeSizes: a negative size is an error that names
// the field, not a panic in the KV block pool (BlockTokens) or an engine
// that rejects every request as an unservable prompt (ChunkBudget,
// MaxSeqs). Zero still means the default.
func TestConfigRejectsNegativeSizes(t *testing.T) {
	cm := llamaCM(t)
	cases := []struct {
		field string
		set   func(c *Config)
	}{
		{"ShiftThreshold", func(c *Config) { c.ShiftThreshold = -1 }},
		{"ChunkBudget", func(c *Config) { c.ChunkBudget = -8192 }},
		{"MaxSeqs", func(c *Config) { c.MaxSeqs = -1 }},
		{"BlockTokens", func(c *Config) { c.BlockTokens = -16 }},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			cfg := shiftCfg(cm)
			tc.set(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Validate() = %v, want an error naming %s", err, tc.field)
			}
			if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("NewEngine() = %v, want an error naming %s", err, tc.field)
			}
		})
	}
	if err := shiftCfg(cm).Validate(); err != nil {
		t.Fatalf("zero sizes (the defaults) rejected: %v", err)
	}
}

func TestNewEngineRejectsOversizeModel(t *testing.T) {
	big := model.Llama70B()
	big.TotalParams = 200e9
	big.ActiveParams = 200e9
	cm := perf.MustNew(hw.P5enNode(), big, perf.DefaultParams())
	if _, err := NewEngine(Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}}); err == nil {
		t.Fatal("expected does-not-fit error")
	}
}

func TestSingleRequestLifecycle(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	ms := e.Run(workload.Single(4096, 100).Requests)
	if len(ms) != 1 {
		t.Fatalf("metrics = %d", len(ms))
	}
	m := ms[0]
	if m.Rejected {
		t.Fatal("request rejected")
	}
	if m.TTFT <= 0 {
		t.Fatal("TTFT not positive")
	}
	if m.Completion < m.TTFT {
		t.Fatal("completion before first token")
	}
	if m.TPOT <= 0 {
		t.Fatal("TPOT not positive")
	}
	// Completion == TTFT + (out-1)*TPOT by construction.
	want := m.TTFT + time.Duration(99)*m.TPOT
	diff := m.Completion - want
	if diff < -time.Duration(99) || diff > time.Duration(99) { // rounding of integer division
		t.Fatalf("completion %v != ttft + 99*tpot %v", m.Completion, want)
	}
}

func TestAllTokensServedOnce(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	tr := workload.Closed("c", 20, 1000, 50)
	e.Run(tr.Requests)
	if e.tokensServed != tr.TotalTokens() {
		t.Fatalf("served %d tokens, trace has %d", e.tokensServed, tr.TotalTokens())
	}
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
	if e.blocks.used() != 0 {
		t.Fatalf("leaked %d blocks", e.blocks.used())
	}
}

func TestChunkedPrefillSplitsLongPrompt(t *testing.T) {
	cm := llamaCM(t)
	cfg := tp8Cfg(cm)
	cfg.ChunkBudget = 2048
	e := mustEngine(t, cfg)
	s := attachIters(e)
	e.Run(workload.Single(10000, 10).Requests)
	// 10000-token prompt at 2048/iter: 5 prefill iterations.
	prefillIters := 0
	for _, it := range s.Iters() {
		if it.Tokens > 1 {
			prefillIters++
		}
	}
	if prefillIters != 5 {
		t.Fatalf("prefill iterations = %d, want 5", prefillIters)
	}
}

func TestRejectImpossiblePrompt(t *testing.T) {
	cm := llamaCM(t)
	cfg := shiftCfg(cm) // SP=8 replicated weights: ~1.3M tokens KV
	e := mustEngine(t, cfg)
	cap := e.KVCapacityTokens()
	ms := e.Run([]workload.Request{{ID: 0, InputTokens: cap + 1000, OutputTokens: 10}})
	if !ms[0].Rejected {
		t.Fatal("oversized prompt should be rejected")
	}
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptionUnderKVPressure(t *testing.T) {
	// Shrink the cache by using a tiny block budget via many large
	// concurrent requests on a single replica.
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 64}
	e := mustEngine(t, cfg)
	cap := e.KVCapacityTokens()
	// 30 requests whose combined context is ~2x capacity force decode
	// growth preemptions.
	per := cap / 15
	reqs := make([]workload.Request, 30)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, InputTokens: per - 500, OutputTokens: 600}
	}
	ms := e.Run(reqs)
	completed := 0
	for _, m := range ms {
		if !m.Rejected {
			completed++
		}
	}
	if completed != 30 {
		t.Fatalf("completed %d/30", completed)
	}
	if e.preemptions == 0 {
		t.Fatal("expected preemptions under 2x oversubscription")
	}
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
}

func TestShiftUsesBothConfigs(t *testing.T) {
	e := mustEngine(t, shiftCfg(llamaCM(t)))
	e.Run(workload.Single(4096, 200).Requests)
	if e.shiftIters == 0 {
		t.Fatal("decode iterations should run the shift (TP) config")
	}
	if e.baseIters == 0 {
		t.Fatal("prefill iterations should run the base (SP) config")
	}
}

func TestShiftThresholdRouting(t *testing.T) {
	cm := llamaCM(t)
	cfg := shiftCfg(cm)
	cfg.ShiftThreshold = 100
	e := mustEngine(t, cfg)
	s := attachIters(e)
	e.Run(workload.Single(4096, 50).Requests)
	// parFor depends only on the batch's tokens, so the iterations at or
	// under the threshold are exactly the shift ones.
	small, large := 0, 0
	for _, it := range s.Iters() {
		if it.Tokens <= cfg.ShiftThreshold {
			small++
		} else {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("want both small and large batches, got %d small, %d large", small, large)
	}
	if small != e.shiftIters || large != e.baseIters {
		t.Fatalf("%d small / %d large batches, but %d shift / %d base iterations",
			small, large, e.shiftIters, e.baseIters)
	}
}

func TestTTFTMonotoneWithQueueing(t *testing.T) {
	// Back-to-back arrivals: later requests wait longer.
	cm := llamaCM(t)
	e := mustEngine(t, tp8Cfg(cm))
	reqs := make([]workload.Request, 10)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, InputTokens: 8000, OutputTokens: 5}
	}
	ms := e.Run(reqs)
	first, last := ms[0], ms[len(ms)-1]
	if last.TTFT <= first.TTFT {
		t.Fatalf("queueing should grow TTFT: first %v, last %v", first.TTFT, last.TTFT)
	}
}

// --- Cluster behaviour ---

func TestDPRouterBalances(t *testing.T) {
	cm := llamaCM(t)
	cl := DPCluster("dp", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 8)
	res, err := cl.Run(workload.Closed("c", 80, 2000, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected %d", res.Rejected)
	}
	if res.TotalTokens != 80*2050 {
		t.Fatalf("tokens = %d", res.TotalTokens)
	}
}

func TestStandardClustersShapes(t *testing.T) {
	cm := llamaCM(t)
	clusters, err := StandardClusters(cm, perf.Parallelism{SP: 8, TP: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters["DP"].Configs) != 8 || len(clusters["TP"].Configs) != 1 {
		t.Fatal("cluster shapes wrong")
	}
	if !clusters["DP"].Lockstep {
		t.Fatal("DP should run in lockstep (vLLM DP semantics)")
	}
	if _, err := StandardClusters(cm, perf.Parallelism{SP: 2, TP: 2}, 8); err == nil {
		t.Fatal("expected span mismatch error")
	}
}

// The headline orderings of Figure 12 at the cluster level.
func TestFig12ClusterOrderings(t *testing.T) {
	cm := llamaCM(t)
	clusters, err := StandardClusters(cm, perf.Parallelism{SP: 8, TP: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	ttft := map[string]time.Duration{}
	tpot := map[string]time.Duration{}
	for name, cl := range clusters {
		tt, tp, err := cl.MinLatency(4096, 250)
		if err != nil {
			t.Fatal(err)
		}
		ttft[name], tpot[name] = tt, tp
	}
	// Response: Shift==SP < TP < DP.
	if !(ttft["Shift"] <= ttft["TP"] && ttft["TP"] < ttft["DP"]) {
		t.Fatalf("TTFT ordering: %v", ttft)
	}
	// Generation: Shift==TP < DP < SP.
	if !(tpot["Shift"] <= tpot["DP"] && tpot["DP"] < tpot["SP"]) {
		t.Fatalf("TPOT ordering: %v", tpot)
	}

	tput := map[string]float64{}
	for name, cl := range clusters {
		tput[name] = closedThroughput(t, cl, 240, 4096, 250)
	}
	// Throughput: TP < SP <= Shift (paper: Shift ~ SP, both >> TP).
	if !(tput["TP"] < tput["SP"]) {
		t.Fatalf("throughput ordering: %v", tput)
	}
	if tput["Shift"] < 0.95*tput["SP"] {
		t.Fatalf("Shift throughput %v should be close to SP %v", tput["Shift"], tput["SP"])
	}
	// Paper: Shift ~1.5x TP throughput.
	if tput["Shift"] < 1.25*tput["TP"] {
		t.Fatalf("Shift/TP throughput ratio %.2f < 1.25", tput["Shift"]/tput["TP"])
	}
}

// --- Speculative decoding + SwiftKV composition (Figure 16) ---

func TestSpecDecodeCutsDecodeIterations(t *testing.T) {
	cm := llamaCM(t)
	plain := mustEngine(t, tp8Cfg(cm))
	plain.Run(workload.Single(1000, 200).Requests)

	cfg := tp8Cfg(cm)
	cfg.Stack = specdec.Stack{Spec: specdec.Spec{Len: 3, Acceptance: 0.7}}
	spec := mustEngine(t, cfg)
	ms := spec.Run(workload.Single(1000, 200).Requests)

	if spec.iters >= plain.iters {
		t.Fatalf("spec decode iters %d >= plain %d", spec.iters, plain.iters)
	}
	if ms[0].Rejected || ms[0].Completion <= 0 {
		t.Fatal("spec decode broke the request")
	}
}

func TestSpecDecodeImprovesCompletion(t *testing.T) {
	cm := llamaCM(t)
	base := SingleEngine("plain", tp8Cfg(cm))
	cfgS := tp8Cfg(cm)
	cfgS.Stack = specdec.Stack{Spec: specdec.Spec{Len: 3, Acceptance: 0.7}}
	fast := SingleEngine("spec", cfgS)

	_, tpotBase, err := base.MinLatency(1000, 200)
	if err != nil {
		t.Fatal(err)
	}
	_, tpotFast, err := fast.MinLatency(1000, 200)
	if err != nil {
		t.Fatal(err)
	}
	if tpotFast >= tpotBase {
		t.Fatalf("spec decode TPOT %v >= plain %v", tpotFast, tpotBase)
	}
}

func TestSwiftKVCutsTTFT(t *testing.T) {
	cm := llamaCM(t)
	base := SingleEngine("plain", tp8Cfg(cm))
	cfgS := tp8Cfg(cm)
	sk := specdec.DefaultSwiftKV()
	cfgS.Stack = specdec.Stack{SwiftKV: &sk}
	fast := SingleEngine("swiftkv", cfgS)

	ttftBase, _, err := base.MinLatency(8192, 50)
	if err != nil {
		t.Fatal(err)
	}
	ttftFast, _, err := fast.MinLatency(8192, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ttftFast >= ttftBase {
		t.Fatalf("SwiftKV TTFT %v >= plain %v", ttftFast, ttftBase)
	}
}

// --- Conservation properties ---

func TestQuickConservationAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cm := llamaCM(t)
	f := func(nRaw, inRaw, outRaw uint8) bool {
		n := 1 + int(nRaw)%12
		in := 200 + int(inRaw)*40
		out := 1 + int(outRaw)%100
		e, err := NewEngine(tp8Cfg(cm))
		if err != nil {
			return false
		}
		tr := workload.Closed("c", n, in, out)
		ms := e.Run(tr.Requests)
		if len(ms) != n {
			return false
		}
		for _, m := range ms {
			if m.Rejected {
				return false
			}
			if m.TTFT <= 0 || m.Completion < m.TTFT {
				return false
			}
		}
		return e.tokensServed == tr.TotalTokens() &&
			checkKV(e) == nil && e.blocks.used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestResultAggregation(t *testing.T) {
	cm := llamaCM(t)
	cl := SingleEngine("tp", tp8Cfg(cm))
	cl.Obs = obs.NewObserver()
	res, err := cl.Run(workload.Closed("c", 10, 1000, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.TTFT.N() != 10 || res.Completion.N() != 10 {
		t.Fatalf("sample sizes: ttft %d comp %d", res.TTFT.N(), res.Completion.N())
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
	records := 0
	for _, s := range cl.Obs.Streams() {
		records += len(s.Iters())
	}
	if records != res.Iters {
		t.Fatalf("iteration records %d != iters %d", records, res.Iters)
	}
	// No preemption and no prefix cache: every token is processed once.
	if total := seriesTotal(cl.Obs); total != res.TotalTokens {
		t.Fatalf("series total %d != tokens %d", total, res.TotalTokens)
	}
}

// summary renders a result's Table 5 style row for failure messages.
func summary(r *Result) string {
	return fmt.Sprintf("%s: p50 TTFT %.0f ms, p50 TPOT %.1f ms, throughput %.0f tok/s, rejected %d",
		r.Name, r.TTFT.Median(), r.TPOT.Median(), r.Throughput(), r.Rejected)
}

// TestThroughputSeriesCountsRecompute: the series counts work done, not
// tokens served. On a KV-tight replica with no prefix cache, every
// preemption recomputes its prompt, so the series total strictly
// exceeds the trace's token total.
func TestThroughputSeriesCountsRecompute(t *testing.T) {
	cfg := Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 64}
	per := mustEngine(t, cfg).KVCapacityTokens() / 15
	reqs := make([]workload.Request, 30)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, InputTokens: per - 500, OutputTokens: 600}
	}
	cl := SingleEngine("tight", cfg)
	cl.Obs = obs.NewObserver()
	res, err := cl.Run(&workload.Trace{Name: "tight", Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 || res.Rejected != 0 {
		t.Fatalf("premise broken: %d preemptions, %d rejected", res.Preemptions, res.Rejected)
	}
	if total := seriesTotal(cl.Obs); total <= res.TotalTokens {
		t.Fatalf("series total %d, want > %d tokens served", total, res.TotalTokens)
	}
}

func TestLockstepSlowerThanIndependent(t *testing.T) {
	// Heterogeneous sizes: lockstep DP pays the slowest replica each step.
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	mk := func(lockstep bool) *Result {
		cl := DPCluster("dp", cfg, 4)
		cl.Lockstep = lockstep
		reqs := make([]workload.Request, 40)
		rngSizes := []int{500, 8000, 1500, 12000}
		for i := range reqs {
			reqs[i] = workload.Request{ID: i, InputTokens: rngSizes[i%4], OutputTokens: 50}
		}
		tr := &workload.Trace{Name: "het", Requests: reqs}
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lock := mk(true)
	free := mk(false)
	if lock.Throughput() >= free.Throughput() {
		t.Fatalf("lockstep tput %.0f >= independent %.0f", lock.Throughput(), free.Throughput())
	}
}

func TestMinLatencySingleRequestNoQueueing(t *testing.T) {
	cm := llamaCM(t)
	cl := SingleEngine("tp", tp8Cfg(cm))
	ttft, tpot, err := cl.MinLatency(4096, 250)
	if err != nil {
		t.Fatal(err)
	}
	// Should match the cost model's MinTTFT within the chunking effects.
	want := cm.MinTTFT(perf.Parallelism{SP: 1, TP: 8}, 4096)
	if ttft < want/2 || ttft > want*2 {
		t.Fatalf("cluster TTFT %v vs model %v", ttft, want)
	}
	if tpot <= 0 {
		t.Fatal("tpot must be positive")
	}
}
