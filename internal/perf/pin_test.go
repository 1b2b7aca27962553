package perf

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

// The batch shapes of the cost-model pin table: a pure decode step, a
// pure prefill chunk, and a chunked-prefill step mixing both (with
// fractional mean contexts, as the engine's plan.shape produces).
var (
	decode  = Batch{DecodeSeqs: 64, DecodeCtx: 1500}
	prefill = Batch{PrefillTokens: 2048, PrefillCtx: 1024}
	mixed   = Batch{PrefillTokens: 512, PrefillCtx: 3000.5, DecodeSeqs: 24, DecodeCtx: 2200.25}
)

// costPins are Iter (ep == 0) and IterEP (ep == 8) results on the 8xH200
// node under DefaultParams, recorded before the cost model cached its
// model constants; the sp4x2 rows' AllToAll was re-recorded when
// CommVolume sized the all-to-all to the TP shard's heads. Every
// simulated latency is a sum of these Costs, so a reordered float
// expression anywhere in the model shows up here as a nanosecond drift. factor is the cost model's PrefillFlopsFactor
// (SwiftKV's 0.5 for three rows).
var costPins = []struct {
	model  string
	par    Parallelism
	batch  Batch
	ep     int
	factor float64
	want   Cost
}{
	{"Llama-70B", dp1, decode, 0, 1, Cost{20833333, 9362285, 0, 0, 2000000}},
	{"Llama-70B", dp1, prefill, 0, 1, Cost{296553815, 7936992, 0, 0, 2000000}},
	{"Llama-70B", dp1, mixed, 0, 1, Cost{82627589, 6014048, 0, 0, 2000000}},
	{"Llama-70B", tp8, decode, 0, 1, Cost{2882061, 1170285, 3686223, 0, 3750000}},
	{"Llama-70B", tp8, prefill, 0, 1, Cost{53935725, 992124, 13799156, 0, 3750000}},
	{"Llama-70B", tp8, mixed, 0, 1, Cost{15027892, 751756, 6092123, 0, 3750000}},
	{"Llama-70B", sp8, decode, 0, 1, Cost{20833333, 1170285, 0, 1702937, 3750000}},
	{"Llama-70B", sp8, prefill, 0, 1, Cost{43011622, 992124, 0, 2414003, 3750000}},
	{"Llama-70B", sp8, mixed, 0, 1, Cost{20833333, 751756, 0, 1872102, 3750000}},
	{"Llama-70B", sp4x2, decode, 0, 1, Cost{10416666, 1170285, 526603, 739660, 3750000}},
	{"Llama-70B", sp4x2, prefill, 0, 1, Cost{42191005, 992124, 1971308, 1349145, 3750000}},
	{"Llama-70B", sp4x2, mixed, 0, 1, Cost{13712076, 751756, 870303, 884659, 3750000}},
	{"Qwen-32B", dp1, decode, 0, 1, Cost{9523809, 4681142, 0, 0, 2000000}},
	{"Qwen-32B", dp1, prefill, 0, 1, Cost{135567458, 3968496, 0, 0, 2000000}},
	{"Qwen-32B", dp1, mixed, 0, 1, Cost{37772612, 3007024, 0, 0, 2000000}},
	{"Qwen-32B", tp8, decode, 0, 1, Cost{1317513, 585142, 2851111, 0, 3750000}},
	{"Qwen-32B", tp8, prefill, 0, 1, Cost{24656331, 496062, 7907578, 0, 3750000}},
	{"Qwen-32B", tp8, mixed, 0, 1, Cost{6869893, 375878, 4054061, 0, 3750000}},
	{"Qwen-32B", sp8, decode, 0, 1, Cost{9523809, 585142, 0, 1355468, 3750000}},
	{"Qwen-32B", sp8, prefill, 0, 1, Cost{19662455, 496062, 0, 1711001, 3750000}},
	{"Qwen-32B", sp8, mixed, 0, 1, Cost{9523809, 375878, 0, 1440051, 3750000}},
	{"Qwen-32B", sp4x2, decode, 0, 1, Cost{4761904, 585142, 407301, 585830, 3750000}},
	{"Qwen-32B", sp4x2, prefill, 0, 1, Cost{19287316, 496062, 1129654, 890572, 3750000}},
	{"Qwen-32B", sp4x2, mixed, 0, 1, Cost{6268377, 375878, 579151, 658329, 3750000}},
	{"Llama-17B-16E", dp1, decode, 0, 1, Cost{32440476, 5617371, 0, 0, 2000000}},
	{"Llama-17B-16E", dp1, prefill, 0, 1, Cost{72020212, 2976372, 0, 0, 2000000}},
	{"Llama-17B-16E", dp1, mixed, 0, 1, Cost{32440476, 3089905, 0, 0, 2000000}},
	{"Llama-17B-16E", tp8, decode, 0, 1, Cost{4055059, 702171, 2138333, 0, 3750000}},
	{"Llama-17B-16E", tp8, prefill, 0, 1, Cost{13098676, 372046, 5930683, 0, 3750000}},
	{"Llama-17B-16E", tp8, mixed, 0, 1, Cost{4055059, 386238, 3040546, 0, 3750000}},
	{"Llama-17B-16E", sp8, decode, 0, 1, Cost{32440476, 702171, 0, 1017175, 3750000}},
	{"Llama-17B-16E", sp8, prefill, 0, 1, Cost{32440476, 372046, 0, 1301601, 3750000}},
	{"Llama-17B-16E", sp8, mixed, 0, 1, Cost{32440476, 386238, 0, 1084840, 3750000}},
	{"Llama-17B-16E", sp4x2, decode, 0, 1, Cost{16220238, 702171, 305476, 439864, 3750000}},
	{"Llama-17B-16E", sp4x2, prefill, 0, 1, Cost{16220238, 372046, 847240, 683658, 3750000}},
	{"Llama-17B-16E", sp4x2, mixed, 0, 1, Cost{16220238, 386238, 434363, 497863, 3750000}},
	{"Qwen-30B-A3B", dp1, decode, 0, 1, Cost{8928571, 1404342, 0, 0, 2000000}},
	{"Qwen-30B-A3B", dp1, prefill, 0, 1, Cost{12709449, 1190548, 0, 0, 2000000}},
	{"Qwen-30B-A3B", dp1, mixed, 0, 1, Cost{8928571, 902107, 0, 0, 2000000}},
	{"Qwen-30B-A3B", tp8, decode, 0, 1, Cost{1116071, 351085, 2064933, 0, 3750000}},
	{"Qwen-30B-A3B", tp8, prefill, 0, 1, Cost{2311531, 148818, 3581873, 0, 3750000}},
	{"Qwen-30B-A3B", tp8, mixed, 0, 1, Cost{1116071, 193119, 2425818, 0, 3750000}},
	{"Qwen-30B-A3B", sp8, decode, 0, 1, Cost{8928571, 351085, 0, 1011822, 3750000}},
	{"Qwen-30B-A3B", sp8, prefill, 0, 1, Cost{8928571, 148818, 0, 1130333, 3750000}},
	{"Qwen-30B-A3B", sp8, mixed, 0, 1, Cost{8928571, 193119, 0, 1040017, 3750000}},
	{"Qwen-30B-A3B", sp4x2, decode, 0, 1, Cost{4464285, 351085, 294990, 435276, 3750000}},
	{"Qwen-30B-A3B", sp4x2, prefill, 0, 1, Cost{4464285, 148818, 511696, 536857, 3750000}},
	{"Qwen-30B-A3B", sp4x2, mixed, 0, 1, Cost{4464285, 193119, 346545, 459443, 3750000}},
	{"Llama-70B", tp8, decode, 0, 0.5, Cost{2882061, 1170285, 3686223, 0, 3750000}},
	{"Llama-70B", tp8, prefill, 0, 0.5, Cost{26967862, 992124, 13799156, 0, 3750000}},
	{"Llama-70B", tp8, mixed, 0, 0.5, Cost{7850391, 751756, 6092123, 0, 3750000}},
	{"Llama-17B-16E", tp8, decode, 8, 1, Cost{702194, 702171, 2138333, 1069166, 3750000}},
	{"Llama-17B-16E", tp8, prefill, 8, 1, Cost{13098676, 372046, 5930683, 2965341, 3750000}},
	{"Llama-17B-16E", tp8, mixed, 8, 1, Cost{3649631, 386238, 3040546, 1520273, 3750000}},
	{"Llama-17B-16E", sp8, decode, 8, 1, Cost{5617559, 702171, 0, 2032820, 3750000}},
	{"Llama-17B-16E", sp8, prefill, 8, 1, Cost{10445679, 372046, 0, 2554268, 3750000}},
	{"Llama-17B-16E", sp8, mixed, 8, 1, Cost{5617559, 386238, 0, 2156874, 3750000}},
	{"Llama-17B-16E", sp4x2, decode, 8, 1, Cost{2808779, 702171, 305476, 1463155, 3750000}},
	{"Llama-17B-16E", sp4x2, prefill, 8, 1, Cost{10246387, 372046, 847240, 2180993, 3750000}},
	{"Llama-17B-16E", sp4x2, mixed, 8, 1, Cost{3330075, 386238, 434363, 1633931, 3750000}},
	{"Qwen-30B-A3B", tp8, decode, 8, 1, Cost{178571, 351085, 2064933, 1032466, 3750000}},
	{"Qwen-30B-A3B", tp8, prefill, 8, 1, Cost{2311531, 148818, 3581873, 1790936, 3750000}},
	{"Qwen-30B-A3B", tp8, mixed, 8, 1, Cost{644052, 193119, 2425818, 1212909, 3750000}},
	{"Qwen-30B-A3B", sp8, decode, 8, 1, Cost{1428571, 351085, 0, 2022880, 3750000}},
	{"Qwen-30B-A3B", sp8, prefill, 8, 1, Cost{1843355, 148818, 0, 2236200, 3750000}},
	{"Qwen-30B-A3B", sp8, mixed, 8, 1, Cost{1428571, 193119, 0, 2073630, 3750000}},
	{"Qwen-30B-A3B", sp4x2, decode, 8, 1, Cost{714285, 351085, 294990, 1449392, 3750000}},
	{"Qwen-30B-A3B", sp4x2, prefill, 8, 1, Cost{1808185, 148818, 511696, 1740591, 3750000}},
	{"Qwen-30B-A3B", sp4x2, mixed, 8, 1, Cost{714285, 193119, 346545, 1518670, 3750000}},
}

func TestCostModelPinnedBitForBit(t *testing.T) {
	for _, pin := range costPins {
		m, err := model.ByName(pin.model)
		if err != nil {
			t.Fatal(err)
		}
		cm := MustNew(hw.P5enNode(), m, DefaultParams())
		cm.PrefillFlopsFactor = pin.factor
		var got Cost
		if pin.ep == 0 {
			got = cm.Iter(pin.par, pin.batch)
		} else {
			got = cm.IterEP(pin.par, EPConfig{Degree: pin.ep}, pin.batch)
		}
		if got != pin.want {
			t.Errorf("%s %s ep=%d factor=%g %+v:\n got %+v\nwant %+v",
				pin.model, pin.par, pin.ep, pin.factor, pin.batch, got, pin.want)
		}
	}
}

// TestShiftCrossoverPinned pins where Algorithm 2's shift configuration
// (full TP) stops being priced faster than each standard deployment's
// base configuration, on prefill-only batches of n tokens at mean context
// n/2 (n = 1 to 131,072, no EP, the 8xH200 node under DefaultParams).
// Algorithm 2 switches at DefaultShiftThreshold (256 tokens), below
// every crossover here, so batches between 257 tokens and the crossover
// run on the configuration the model prices slower. Qwen-30B-A3B's base
// wins a lone token: the ring all-reduce's per-hop latency is all of the
// shift's all-reduce time there. A cost-model change that moves these
// numbers has to say so.
func TestShiftCrossoverPinned(t *testing.T) {
	qwenMoE := model.Qwen30BA3B()
	qwenMoE.KVDType = model.FP8
	for _, tc := range []struct {
		m        model.Config
		base     Parallelism
		from, to int // the shift is faster exactly for n in [from, to]
	}{
		{model.Llama70B(), Parallelism{SP: 8, TP: 1}, 1, 588},
		{model.Qwen32B(), Parallelism{SP: 8, TP: 1}, 1, 538},
		{model.Llama17B16E(), Parallelism{SP: 4, TP: 2}, 1, 1883},
		{qwenMoE, Parallelism{SP: 8, TP: 1}, 2, 4352},
	} {
		cm := MustNew(hw.P5enNode(), tc.m, DefaultParams())
		shift := Parallelism{SP: 1, TP: tc.base.World()}
		var wins [][2]int // maximal runs of n where the shift is faster
		for n := 1; n <= 1<<17; n++ {
			b := Batch{PrefillTokens: n, PrefillCtx: float64(n) / 2}
			if cm.IterEP(shift, EPConfig{}, b).Total() >= cm.IterEP(tc.base, EPConfig{}, b).Total() {
				continue
			}
			if k := len(wins) - 1; k >= 0 && wins[k][1] == n-1 {
				wins[k][1] = n
			} else {
				wins = append(wins, [2]int{n, n})
			}
		}
		if len(wins) != 1 || wins[0] != [2]int{tc.from, tc.to} {
			t.Errorf("%s, base %s: the shift is faster for n in %v; pinned [%d %d]",
				tc.m.Name, tc.base, wins, tc.from, tc.to)
		}
	}
}
