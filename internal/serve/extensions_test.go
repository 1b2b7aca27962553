package serve

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/workload"
)

func moeCM(t *testing.T) *perf.CostModel {
	t.Helper()
	return perf.MustNew(hw.P5enNode(), model.Llama17B16E(), perf.DefaultParams())
}

// --- Expert parallelism (paper future work) ---

func TestEPConfigValidation(t *testing.T) {
	cm := moeCM(t)
	bad := Config{CM: cm, Par: perf.Parallelism{SP: 4, TP: 2}, EP: perf.EPConfig{Degree: 3}}
	if _, err := NewEngine(bad); err == nil {
		t.Fatal("EP=3 on world 8 should fail validation")
	}
	good := Config{CM: cm, Par: perf.Parallelism{SP: 4, TP: 2}, EP: perf.EPConfig{Degree: 8}}
	if _, err := NewEngine(good); err != nil {
		t.Fatal(err)
	}
}

// SP=8 alone cannot deploy L17B-16E with a shift model (no KV room);
// SP=8 + EP=8 can — EP unlocks the full-SP base config.
func TestEPUnlocksFullSPDeployment(t *testing.T) {
	cm := moeCM(t)
	noEP := Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: StrategyShift}
	eNo, err := NewEngine(noEP)
	if err != nil {
		t.Fatal(err)
	}
	withEP := noEP
	withEP.EP = perf.EPConfig{Degree: 8}
	eYes, err := NewEngine(withEP)
	if err != nil {
		t.Fatal(err)
	}
	if eYes.KVCapacityTokens() < 4*eNo.KVCapacityTokens() {
		t.Fatalf("EP should multiply KV capacity: %d vs %d",
			eYes.KVCapacityTokens(), eNo.KVCapacityTokens())
	}
}

func TestEPImprovesMoEThroughput(t *testing.T) {
	cm := moeCM(t)
	base := Config{CM: cm, Par: perf.Parallelism{SP: 4, TP: 2}, Strategy: StrategyShift}
	withEP := base
	withEP.EP = perf.EPConfig{Degree: 8}

	plain := closedThroughput(t, SingleEngine("noEP", base), 160, 4096, 250)
	ep := closedThroughput(t, SingleEngine("EP8", withEP), 160, 4096, 250)
	if ep <= plain {
		t.Fatalf("SP+EP throughput %.0f <= SP alone %.0f", ep, plain)
	}
}

func TestEPNoEffectOnDense(t *testing.T) {
	cm := llamaCM(t)
	base := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}}
	withEP := base
	withEP.EP = perf.EPConfig{Degree: 8}
	a := closedThroughput(t, SingleEngine("a", base), 40, 2048, 100)
	b := closedThroughput(t, SingleEngine("b", withEP), 40, 2048, 100)
	if a != b {
		t.Fatalf("EP changed a dense model's throughput: %v vs %v", a, b)
	}
}

// --- Prefix caching ---

func TestPrefixCacheValidation(t *testing.T) {
	cm := llamaCM(t)
	for _, rate := range []float64{-0.1, 1.0, 2.0} {
		cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}, PrefixCacheHitRate: rate}
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("rate %v should fail validation", rate)
		}
	}
}

func TestPrefixCacheCutsTTFT(t *testing.T) {
	cm := llamaCM(t)
	base := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}}
	cached := base
	cached.PrefixCacheHitRate = 0.8

	ttftBase, _, err := SingleEngine("plain", base).MinLatency(16384, 50)
	if err != nil {
		t.Fatal(err)
	}
	ttftHit, _, err := SingleEngine("apc", cached).MinLatency(16384, 50)
	if err != nil {
		t.Fatal(err)
	}
	// 80% of the prompt skips prefill: TTFT should drop several-fold.
	if ttftHit >= ttftBase/2 {
		t.Fatalf("prefix-cached TTFT %v should be well under half of %v", ttftHit, ttftBase)
	}
}

func TestPrefixCacheStillOccupiesKV(t *testing.T) {
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}, PrefixCacheHitRate: 0.9}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := e.Run(workload.Single(10000, 20).Requests)
	if ms[0].Rejected {
		t.Fatal("request rejected")
	}
	// All blocks must have been allocated (and released at completion):
	// conservation holds even though most tokens skipped compute.
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
	if e.blocks.used() != 0 {
		t.Fatal("blocks leaked")
	}
	// Served tokens exclude the cached prefix but include the rest.
	if e.tokensServed >= 10020 || e.tokensServed < 1000 {
		t.Fatalf("tokensServed = %d, want ~ (10%% of prompt + outputs)", e.tokensServed)
	}
}

func TestPrefixCacheDecodeUnchanged(t *testing.T) {
	cm := llamaCM(t)
	base := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}}
	cached := base
	cached.PrefixCacheHitRate = 0.8
	_, tpotBase, err := SingleEngine("plain", base).MinLatency(8192, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, tpotHit, err := SingleEngine("apc", cached).MinLatency(8192, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Decode reads the full context either way; TPOT within 5%.
	ratio := float64(tpotHit) / float64(tpotBase)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("prefix cache changed TPOT: %v vs %v", tpotHit, tpotBase)
	}
}

func TestPrefixCachePreemptionKeepsPrefix(t *testing.T) {
	// Force preemptions under KV pressure with caching on; requests must
	// still complete and conserve blocks.
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, PrefixCacheHitRate: 0.5, MaxSeqs: 64}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capTok := e.KVCapacityTokens()
	per := capTok / 15
	reqs := make([]workload.Request, 30)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, InputTokens: per - 500, OutputTokens: 600}
	}
	ms := e.Run(reqs)
	for _, m := range ms {
		if m.Rejected {
			t.Fatal("request rejected")
		}
	}
	if e.preemptions == 0 {
		t.Fatal("expected preemptions")
	}
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
}
