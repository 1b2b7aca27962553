package perf

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
)

func llamaCM(t *testing.T) *CostModel {
	t.Helper()
	cm, err := New(hw.P5enNode(), model.Llama70B(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func qwenCM(t *testing.T) *CostModel {
	t.Helper()
	cm, err := New(hw.P5enNode(), model.Qwen32B(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

var (
	dp1   = Parallelism{SP: 1, TP: 1} // one DP replica
	tp8   = Parallelism{SP: 1, TP: 8}
	sp8   = Parallelism{SP: 8, TP: 1}
	sp4x2 = Parallelism{SP: 4, TP: 2}
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestParallelismString(t *testing.T) {
	cases := map[string]Parallelism{
		"1GPU": dp1, "TP=8": tp8, "SP=8": sp8, "(SP=4,TP=2)": sp4x2,
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("%+v -> %q, want %q", p, got, want)
		}
	}
}

// Add sums component by component; Scale multiplies each component in
// float64 and truncates it on its own, so Scale(f).Total() can differ
// from truncating Total()*f.
func TestCostAddAndScale(t *testing.T) {
	a := Cost{GEMM: 1, Attn: 2, AllReduce: 3, AllToAll: 4, Overhead: 5}
	b := Cost{GEMM: 10, Attn: 20, AllReduce: 30, AllToAll: 40, Overhead: 50}
	if got, want := a.Add(b), (Cost{GEMM: 11, Attn: 22, AllReduce: 33, AllToAll: 44, Overhead: 55}); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got, want := a.Scale(1.5), (Cost{GEMM: 1, Attn: 3, AllReduce: 4, AllToAll: 6, Overhead: 7}); got != want {
		t.Fatalf("Scale(1.5) = %+v, want %+v", got, want)
	}
	if got := a.Scale(1.5).Total(); got != 21 {
		t.Fatalf("Scale(1.5).Total() = %v, want 21 (per-component truncation; 22 truncating the total)", got)
	}
}

func TestIterZeroBatchOnlyOverhead(t *testing.T) {
	cm := llamaCM(t)
	c := cm.Iter(tp8, Batch{})
	if c.GEMM != 0 || c.Attn != 0 || c.AllReduce != 0 || c.AllToAll != 0 {
		t.Fatalf("zero batch cost = %+v", c)
	}
	if c.Overhead <= 0 {
		t.Fatal("overhead must be positive")
	}
}

// --- Figure 12 calibration bands (shape, not absolute) ---
//
// Paper raw measurements (Llama-70B, 8xH200, 4k input / 250 output):
//   TTFT ms:  DP 614, TP 159, SP 103
//   TPOT ms:  DP 22.5, TP 9.34, SP 32.5
// We require each modeled point within a factor band of the measured one,
// and all the orderings the paper's argument rests on.

func TestFig12TTFTBands(t *testing.T) {
	cm := llamaCM(t)
	in := 4096
	dpTTFT := ms(cm.MinTTFT(dp1, in))
	tpTTFT := ms(cm.MinTTFT(tp8, in))
	spTTFT := ms(cm.MinTTFT(sp8, in))

	within := func(got, want, factor float64) bool {
		return got > want/factor && got < want*factor
	}
	if !within(dpTTFT, 614, 1.5) {
		t.Errorf("DP TTFT = %.0f ms, paper 614", dpTTFT)
	}
	if !within(tpTTFT, 159, 1.6) {
		t.Errorf("TP TTFT = %.0f ms, paper 159", tpTTFT)
	}
	if !within(spTTFT, 103, 1.6) {
		t.Errorf("SP TTFT = %.0f ms, paper 103", spTTFT)
	}
	// Orderings: SP < TP < DP on response time.
	if !(spTTFT < tpTTFT && tpTTFT < dpTTFT) {
		t.Fatalf("TTFT ordering broken: SP %.0f, TP %.0f, DP %.0f", spTTFT, tpTTFT, dpTTFT)
	}
	// DP is several times slower than SP (paper: 6x).
	if ratio := dpTTFT / spTTFT; ratio < 3 {
		t.Errorf("DP/SP TTFT ratio = %.1f, expected >= 3", ratio)
	}
}

func TestFig12TPOTBands(t *testing.T) {
	cm := llamaCM(t)
	ctx := 4096
	dpTPOT := ms(cm.MinTPOT(dp1, ctx))
	tpTPOT := ms(cm.MinTPOT(tp8, ctx))
	spTPOT := ms(cm.MinTPOT(sp8, ctx))

	within := func(got, want, factor float64) bool {
		return got > want/factor && got < want*factor
	}
	if !within(dpTPOT, 22.5, 1.5) {
		t.Errorf("DP TPOT = %.1f ms, paper 22.5", dpTPOT)
	}
	if !within(tpTPOT, 9.34, 1.5) {
		t.Errorf("TP TPOT = %.1f ms, paper 9.34", tpTPOT)
	}
	if !within(spTPOT, 32.5, 1.8) {
		t.Errorf("SP TPOT = %.1f ms, paper 32.5", spTPOT)
	}
	// Orderings: TP < DP < SP on generation latency (Table 1).
	if !(tpTPOT < dpTPOT && dpTPOT < spTPOT) {
		t.Fatalf("TPOT ordering broken: TP %.1f, DP %.1f, SP %.1f", tpTPOT, dpTPOT, spTPOT)
	}
}

func TestQwenLatencyOrderings(t *testing.T) {
	cm := qwenCM(t)
	if !(cm.MinTTFT(sp8, 4096) < cm.MinTTFT(tp8, 4096)) {
		t.Error("Qwen: SP TTFT should beat TP")
	}
	if !(cm.MinTPOT(tp8, 4096) < cm.MinTPOT(dp1, 4096)) {
		t.Error("Qwen: TP TPOT should beat DP")
	}
}

// Table 2 shape: TP communication cost grows with degree, SP's does not
// (per-rank all-to-all volume shrinks as 1/SP while all-reduce volume
// stays O(n*d)).
func TestTable2CommScaling(t *testing.T) {
	cm := llamaCM(t)
	b := Batch{PrefillTokens: 8192, PrefillCtx: 4096}
	ar2 := cm.Iter(Parallelism{SP: 1, TP: 2}, b).AllReduce
	ar8 := cm.Iter(tp8, b).AllReduce
	if ar8 <= ar2 {
		t.Errorf("all-reduce should grow with TP: TP=2 %v, TP=8 %v", ar2, ar8)
	}
	a2 := cm.Iter(Parallelism{SP: 2, TP: 1}, b).AllToAll
	a8 := cm.Iter(sp8, b).AllToAll
	if a8 >= a2 {
		t.Errorf("all-to-all per rank should shrink with SP: SP=2 %v, SP=8 %v", a2, a8)
	}
	// And SP communicates less than TP at the same degree.
	sp, tp := cm.Iter(sp8, b), cm.Iter(tp8, b)
	if sp.AllReduce+sp.AllToAll >= tp.AllReduce+tp.AllToAll {
		t.Error("SP should communicate less than TP")
	}
}

// Throughput proxy: per-token iteration time of a big prefill batch.
// Paper Figure 12: DP > SP > TP on combined throughput; TP loses ~46%
// vs DP, SP only ~19%.
func TestThroughputOrdering(t *testing.T) {
	cm := llamaCM(t)
	b := Batch{PrefillTokens: 8192, PrefillCtx: 2048}
	perTok := func(p Parallelism) float64 {
		c := cm.Iter(p, b)
		// DP=8 single-GPU replicas process 8 such batches concurrently.
		return ms(c.Total()) / float64(b.PrefillTokens) / float64(8/p.World())
	}
	dp := perTok(dp1)
	sp := perTok(sp8)
	tp := perTok(tp8)
	if !(dp < sp && sp < tp) {
		t.Fatalf("throughput ordering broken: dp %.4f, sp %.4f, tp %.4f ms/tok", dp, sp, tp)
	}
	tpLoss := 1 - dp/tp
	spLoss := 1 - dp/sp
	if tpLoss < 0.25 {
		t.Errorf("TP throughput loss = %.0f%%, paper ~46%%", tpLoss*100)
	}
	if spLoss > 0.35 {
		t.Errorf("SP throughput loss = %.0f%%, paper ~18%%", spLoss*100)
	}
	if spLoss >= tpLoss {
		t.Error("SP should lose less throughput than TP")
	}
}

// SP decode padding: batch sizes below the SP degree pay for a full
// multiple (Section 3.2.1's 9-tokens-on-SP=8 example).
func TestSPDecodePaddingCost(t *testing.T) {
	cm := llamaCM(t)
	b1 := cm.Iter(sp8, Batch{DecodeSeqs: 8, DecodeCtx: 1024})
	b2 := cm.Iter(sp8, Batch{DecodeSeqs: 9, DecodeCtx: 1024})
	// 9 tokens pad to 16: the GEMM component should not be cheaper than
	// the 8-token batch (the pace is set by ceil(9/8)=2 rows per rank).
	if b2.GEMM < b1.GEMM {
		t.Errorf("padded batch GEMM %v < unpadded %v", b2.GEMM, b1.GEMM)
	}
}

func TestDecodeIsWeightBandwidthBound(t *testing.T) {
	cm := llamaCM(t)
	c := cm.Iter(dp1, Batch{DecodeSeqs: 1, DecodeCtx: 1024})
	// 70 GB at 4.8 TB/s * 0.7 eff ~ 20.8 ms.
	if got := ms(c.GEMM); got < 15 || got > 30 {
		t.Errorf("decode GEMM = %.1f ms, want ~21", got)
	}
}

func TestMoEStreamsOnlyActiveExperts(t *testing.T) {
	cm, err := New(hw.P5enNode(), model.Qwen30BA3B(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	small := cm.Iter(dp1, Batch{DecodeSeqs: 1, DecodeCtx: 512})
	// A 1-token batch reads ~3 GB (active) not 30 GB (total).
	if got := ms(small.GEMM); got > 5 {
		t.Errorf("MoE decode GEMM = %.2f ms, should be ~1", got)
	}
	dense := model.Qwen30BA3B()
	dense.ActiveParams = dense.TotalParams
	cmDense := MustNew(hw.P5enNode(), dense, DefaultParams())
	if cmDense.Iter(dp1, Batch{DecodeSeqs: 1, DecodeCtx: 512}).GEMM <= small.GEMM {
		t.Error("dense variant should be slower at decode")
	}
}

func TestKVReplicationRaisesDecodeCost(t *testing.T) {
	// Qwen-30B-A3B has 4 KV heads: on 8 ranks each rank holds 1/4 (not
	// 1/8) of the KV cache, so decode attention reads more per rank.
	cm := MustNew(hw.P5enNode(), model.Qwen30BA3B(), DefaultParams())
	if kvShare(cm.M.KVHeads, 8) != 0.25 {
		t.Fatalf("kvShare(8) = %v, want 0.25", kvShare(cm.M.KVHeads, 8))
	}
	if kvShare(cm.M.KVHeads, 4) != 0.25 || kvShare(cm.M.KVHeads, 2) != 0.5 {
		t.Fatal("kvShare below replication threshold wrong")
	}
}

// --- Memory model (Eq. 1 + capacity) ---

// Eq. 1 over every base factorization of 8 GPUs, both memory strategies,
// and both weight layouts: dense Llama-70B and Llama-17B-16E with its
// experts sharded EP8. The base shard is w/TP (EP shards only the
// experts); the shift copy adds w/(SP*TP) of the full weights, only
// when the base is not already full TP and the weights are not sliced
// on the fly. The KV budget moves with the footprint.
func TestWeightBytesPerGPU(t *testing.T) {
	models := []struct {
		m         model.Config
		ep        EPConfig
		base, all float64 // per-GPU bytes at TP=1: sharded base, full weights
	}{
		{model.Llama70B(), EPConfig{}, 70e9, 70e9},
		{model.Llama17B16E(), EPConfig{Degree: 8}, 6e9 + 103e9/8, 109e9},
	}
	for _, mc := range models {
		for _, sliced := range []bool{false, true} {
			p := DefaultParams()
			p.OnTheFlySlicing = sliced
			cm := MustNew(hw.P5enNode(), mc.m, p)
			for _, par := range []Parallelism{sp8, sp4x2, {SP: 2, TP: 4}, tp8} {
				base := mc.base / float64(par.TP)
				total := base
				if par.SP > 1 && !sliced {
					total += mc.all / float64(par.World())
				}
				name := fmt.Sprintf("%s %v sliced=%v", mc.m.Name, par, sliced)
				if got := cm.WeightBytesPerGPU(par, mc.ep, false); got != base {
					t.Errorf("%s: base weights = %g, want %g", name, got, base)
				}
				if got := cm.WeightBytesPerGPU(par, mc.ep, true); got != total {
					t.Errorf("%s: shift deployment weights = %g, want %g", name, got, total)
				}
				// The paper's overhead: exactly 1/SP of the dense base shard.
				if mc.m.Name == "Llama-70B" && total > base && total/base-1 != 1/float64(par.SP) {
					t.Errorf("%s: overhead %g, want 1/SP", name, total/base-1)
				}
				without, with := cm.KVCapacityTokens(par, mc.ep, false), cm.KVCapacityTokens(par, mc.ep, true)
				if (with < without) != (total > base) || with > without {
					t.Errorf("%s: KV %d with the shift copy vs %d without", name, with, without)
				}
			}
		}
	}
	// The ablation's two rows: SP=8 Llama-70B reserves the 8.75 GB shift
	// copy unless it slices, and the budget shows it.
	sliced := DefaultParams()
	sliced.OnTheFlySlicing = true
	if got := llamaCM(t).KVCapacityTokens(sp8, EPConfig{}, true); got != 1175537 {
		t.Errorf("SP=8 separate-models KV = %d, want 1175537", got)
	}
	if got := MustNew(hw.P5enNode(), model.Llama70B(), sliced).KVCapacityTokens(sp8, EPConfig{}, true); got != 1389160 {
		t.Errorf("SP=8 on-the-fly KV = %d, want 1389160", got)
	}
}

// The paper's L17B-16E example: SP=8 leaves no KV room for long contexts;
// (SP=4, TP=2) is the workable base config.
func TestL17B16EMemoryForcesTP2(t *testing.T) {
	cm := MustNew(hw.P5enNode(), model.Llama17B16E(), DefaultParams())
	longCtx := 400_000 // tokens of KV needed for long-context serving
	if cm.KVCapacityTokens(sp8, EPConfig{}, true) >= longCtx {
		t.Error("SP=8 with shift model should NOT leave enough KV space")
	}
	if cm.KVCapacityTokens(sp4x2, EPConfig{}, true) < longCtx {
		t.Error("(SP=4,TP=2) should fit with KV room")
	}
}

func TestKVCapacityTinyWhenWeightsBarelyFit(t *testing.T) {
	cm := MustNew(hw.P5enNode(), model.Llama17B16E(), DefaultParams())
	// 109 GB weights + 13.6 GB shift model leave only ~4 GB of the
	// 126.9 GB usable: a sliver of KV, far below long-context needs.
	got := cm.KVCapacityTokens(sp8, EPConfig{}, true)
	if got <= 0 || got > 250_000 {
		t.Fatalf("capacity = %d, want small positive", got)
	}
}

func TestKVCapacityZeroWhenWeightsDontFit(t *testing.T) {
	big := model.Llama70B()
	big.TotalParams = 200e9 // 200 GB FP8 > 141 GB GPU
	big.ActiveParams = 200e9
	cm := MustNew(hw.P5enNode(), big, DefaultParams())
	if got := cm.KVCapacityTokens(sp8, EPConfig{}, false); got != 0 {
		t.Fatalf("capacity = %d, want 0", got)
	}
}

func TestFP8KVCacheDoublesCapacity(t *testing.T) {
	m := model.Qwen32B()
	cmFP16 := MustNew(hw.P5enNode(), m, DefaultParams())
	m.KVDType = model.FP8
	cmFP8 := MustNew(hw.P5enNode(), m, DefaultParams())
	c16 := cmFP16.KVCapacityTokens(tp8, EPConfig{}, false)
	c8 := cmFP8.KVCapacityTokens(tp8, EPConfig{}, false)
	if diff := c8 - 2*c16; diff < -1 || diff > 1 {
		t.Fatalf("FP8 KV capacity %d, FP16 %d: want 2x (+-1 rounding)", c8, c16)
	}
}

// --- Ablation hooks ---

func TestSlicePenaltySlowsGEMM(t *testing.T) {
	p := DefaultParams()
	p.OnTheFlySlicing = true
	sliced := MustNew(hw.P5enNode(), model.Llama70B(), p)
	sep := llamaCM(t)
	b := Batch{PrefillTokens: 4096, PrefillCtx: 2048}
	if sliced.Iter(tp8, b).GEMM <= sep.Iter(tp8, b).GEMM {
		t.Error("on-the-fly slicing should cost GEMM efficiency")
	}
}

func TestSwiftKVFactorCutsPrefill(t *testing.T) {
	cm := llamaCM(t)
	full := cm.MinTTFT(tp8, 8192)
	cm.PrefillFlopsFactor = 0.5
	half := cm.MinTTFT(tp8, 8192)
	if half >= full {
		t.Fatal("SwiftKV factor should cut TTFT")
	}
	// Decode unaffected.
	cmd := llamaCM(t)
	d1 := cmd.MinTPOT(tp8, 4096)
	cmd.PrefillFlopsFactor = 0.5
	if cmd.MinTPOT(tp8, 4096) != d1 {
		t.Fatal("SwiftKV factor must not change decode")
	}
}

// --- Properties ---

// Iteration time is monotone in batch size for a fixed parallelism.
func TestQuickIterMonotoneInTokens(t *testing.T) {
	cm := llamaCM(t)
	f := func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw)%16384, int(bRaw)%16384
		if a > b {
			a, b = b, a
		}
		ca := cm.Iter(tp8, Batch{PrefillTokens: a, PrefillCtx: float64(a) / 2})
		cb := cm.Iter(tp8, Batch{PrefillTokens: b, PrefillCtx: float64(b) / 2})
		return ca.Total() <= cb.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// All cost components are non-negative for arbitrary batches.
func TestQuickCostsNonNegative(t *testing.T) {
	cm := qwenCM(t)
	pars := []Parallelism{dp1, tp8, sp8, sp4x2, {SP: 2, TP: 4}}
	f := func(pt uint16, ds uint8, pi uint8) bool {
		b := Batch{
			PrefillTokens: int(pt) % 10000,
			PrefillCtx:    float64(pt%10000) / 2,
			DecodeSeqs:    int(ds),
			DecodeCtx:     float64(pi) * 100,
		}
		for _, p := range pars {
			c := cm.Iter(p, b)
			if c.GEMM < 0 || c.Attn < 0 || c.AllReduce < 0 || c.AllToAll < 0 || c.Overhead < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Attention time dominates at very long contexts (Figure 13/15: the
// throughput collapse at 128k is attention, not communication).
func TestLongContextAttentionDominates(t *testing.T) {
	cm := llamaCM(t)
	b := Batch{PrefillTokens: 8192, PrefillCtx: 128 * 1024}
	c := cm.Iter(tp8, b)
	if c.Attn <= c.GEMM {
		t.Errorf("at 128k ctx attention (%v) should dominate GEMM (%v)", c.Attn, c.GEMM)
	}
}
