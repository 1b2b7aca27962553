package perf

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

func moeCM(t *testing.T) *CostModel {
	t.Helper()
	return MustNew(hw.P5enNode(), model.Llama17B16E(), DefaultParams())
}

func TestEPValidate(t *testing.T) {
	if err := (EPConfig{Degree: 8}).Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := (EPConfig{Degree: 0}).Validate(8); err != nil {
		t.Fatal("degree 0 (disabled) should validate")
	}
	if err := (EPConfig{Degree: 3}).Validate(8); err == nil {
		t.Fatal("EP=3 should not divide world 8")
	}
	if err := (EPConfig{Degree: -1}).Validate(8); err == nil {
		t.Fatal("negative degree should fail")
	}
}

func TestEPNoOpForDense(t *testing.T) {
	cm := llamaCM(t)
	b := Batch{PrefillTokens: 4096, PrefillCtx: 2048}
	plain := cm.Iter(tp8, b)
	ep := cm.IterEP(tp8, EPConfig{Degree: 8}, b)
	if plain != ep {
		t.Fatal("EP must be a no-op for dense models")
	}
}

func TestEPNoOpWhenDisabled(t *testing.T) {
	cm := moeCM(t)
	b := Batch{DecodeSeqs: 8, DecodeCtx: 2048}
	if cm.Iter(sp4x2, b) != cm.IterEP(sp4x2, EPConfig{Degree: 1}, b) {
		t.Fatal("EP degree 1 must match plain Iter")
	}
}

// The future-work claim, made measurable: sharding experts cuts the
// weight-streaming-bound iteration time of large-batch MoE serving.
func TestEPCutsWeightStreamingAtLargeBatch(t *testing.T) {
	cm := moeCM(t)
	// A large decode batch activates (nearly) every expert, so streaming
	// the 109 GB expert-dominated weights is the binding roofline term;
	// sharding them 8 ways cuts it ~5x. (Huge prefill batches are
	// compute-bound instead, where EP's streaming savings vanish —
	// TestEPSmallBatchTradeoff covers the other end.)
	b := Batch{DecodeSeqs: 512, DecodeCtx: 2048}
	plain := cm.Iter(sp4x2, b)
	ep := cm.IterEP(sp4x2, EPConfig{Degree: 8}, b)
	if ep.GEMM >= plain.GEMM/2 {
		t.Fatalf("EP GEMM %v should be well under half of plain %v", ep.GEMM, plain.GEMM)
	}
}

func TestEPAddsRoutingAllToAll(t *testing.T) {
	cm := moeCM(t)
	b := Batch{PrefillTokens: 8192, PrefillCtx: 4096}
	plain := cm.Iter(sp4x2, b)
	ep := cm.IterEP(sp4x2, EPConfig{Degree: 8}, b)
	if ep.AllToAll <= plain.AllToAll {
		t.Fatal("EP must add dispatch/combine all-to-all time")
	}
	// Attention and TP all-reduce are untouched.
	if ep.Attn != plain.Attn || ep.AllReduce != plain.AllReduce {
		t.Fatal("EP must not change attention or all-reduce costs")
	}
}

func TestEPWeightFootprintShrinks(t *testing.T) {
	cm := moeCM(t)
	full := cm.WeightBytesPerGPU(sp8, EPConfig{}, false) // 109 GB
	ep8 := cm.WeightBytesPerGPU(sp8, EPConfig{Degree: 8}, false)
	// Shared 6 GB + 103/8 GB ~ 18.9 GB.
	if ep8 >= full/3 {
		t.Fatalf("EP=8 footprint %g should be far below %g", ep8, full)
	}
	want := 6e9 + 103e9/8
	if diff := ep8 - want; diff < -1e6 || diff > 1e6 {
		t.Fatalf("EP=8 footprint %g, want %g", ep8, want)
	}
}

// The paper's L17B-16E problem — SP=8 leaves no KV room — disappears
// under SP=8 + EP=8: the freed expert memory becomes KV cache, so the
// full-SP base config becomes deployable for long contexts.
func TestEPUnlocksFullSPForL17B(t *testing.T) {
	cm := moeCM(t)
	longCtx := 400_000
	if cm.KVCapacityTokens(sp8, EPConfig{}, true) >= longCtx {
		t.Fatal("premise broken: SP=8 without EP should lack KV room")
	}
	if got := cm.KVCapacityTokens(sp8, EPConfig{Degree: 8}, true); got < longCtx {
		t.Fatalf("SP=8+EP=8 KV capacity %d should exceed %d", got, longCtx)
	}
}

func TestEPKVCapacityDenseUnchanged(t *testing.T) {
	cm := llamaCM(t)
	a := cm.KVCapacityTokens(tp8, EPConfig{}, false)
	b := cm.KVCapacityTokens(tp8, EPConfig{Degree: 8}, false)
	if a != b {
		t.Fatal("EP must not change dense KV capacity")
	}
}

func TestEPSmallBatchTradeoff(t *testing.T) {
	// At batch 1 the activated experts are few; EP's routing latency can
	// exceed its streaming savings — the combination is a *large batch*
	// (throughput) optimization, like SP itself.
	cm := moeCM(t)
	b := Batch{DecodeSeqs: 1, DecodeCtx: 1024}
	plain := cm.Iter(sp4x2, b)
	ep := cm.IterEP(sp4x2, EPConfig{Degree: 8}, b)
	if ep.AllToAll <= plain.AllToAll {
		t.Fatal("EP routing cost should appear even at batch 1")
	}
}
