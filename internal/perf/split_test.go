package perf

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
)

// TestIterPartsSumToIterEP checks the split of an iteration's cost on
// random batches: IterBase carries every component but Attn, IterAttn
// carries Attn, and the two sum to IterEP bit for bit, component by
// component. IterEP is also
// compared with preSplitIterEP, the cost formula as a single function,
// so the split moved no float operation on any input drawn, not only on
// the pinned batches.
func TestIterPartsSumToIterEP(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	sizes := []int{1, 2, 4, 8}
	for _, name := range []string{"Llama-70B", "Llama-17B-16E"} {
		m, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, slicing := range []bool{false, true} {
			p := DefaultParams()
			p.OnTheFlySlicing = slicing
			cm := MustNew(hw.P5enNode(), m, p)
			for i := 0; i < 2000; i++ {
				par := Parallelism{SP: sizes[rng.IntN(4)], TP: sizes[rng.IntN(4)]}
				var degrees []int
				for _, d := range []int{0, 2, 4, 8} {
					if par.World()%max(d, 1) == 0 {
						degrees = append(degrees, d)
					}
				}
				ep := EPConfig{Degree: degrees[rng.IntN(len(degrees))]}
				cm.PrefillFlopsFactor = [...]float64{1, 0.5, 0.3}[rng.IntN(3)]
				b := randomBatch(rng)

				base, attn := cm.IterBase(par, ep, b), cm.IterAttn(par, b)
				got := cm.IterEP(par, ep, b)
				if base.Attn != 0 {
					t.Fatalf("%s %s ep=%d %+v: IterBase has Attn %d", name, par, ep.Degree, b, base.Attn)
				}
				if sum := base.Add(Cost{Attn: attn}); sum != got {
					t.Fatalf("%s %s ep=%d %+v: parts sum to %+v, IterEP %+v", name, par, ep.Degree, b, sum, got)
				}
				if want := preSplitIterEP(cm, par, ep, b); got != want {
					t.Fatalf("%s %s ep=%d slicing=%v factor=%g %+v:\n got %+v\nwant %+v",
						name, par, ep.Degree, slicing, cm.PrefillFlopsFactor, b, got, want)
				}
			}
		}
	}
}

// randomBatch draws an engine batch: one in eight has no tokens (with
// or without stale contexts), the rest mix a prefill chunk, decoders,
// both, with fractional mean contexts as the engine's plan shapes have.
func randomBatch(rng *rand.Rand) Batch {
	ctx := func() float64 { return math.Round(rng.Float64()*65536*4) / 4 }
	switch rng.IntN(8) {
	case 0:
		if rng.IntN(2) == 0 {
			return Batch{}
		}
		return Batch{PrefillCtx: ctx(), DecodeCtx: ctx()}
	case 1, 2:
		return Batch{PrefillTokens: 1 + rng.IntN(8192), PrefillCtx: ctx()}
	case 3, 4, 5:
		return Batch{DecodeSeqs: 1 + rng.IntN(512), DecodeCtx: ctx()}
	default:
		return Batch{PrefillTokens: 1 + rng.IntN(8192), PrefillCtx: ctx(),
			DecodeSeqs: 1 + rng.IntN(512), DecodeCtx: ctx()}
	}
}

// preSplitIterEP is IterEP written as one function, with the operand
// order of every float expression as it was before the cost was split
// into IterBase and IterAttn. A deliberate change to the cost formula
// updates it together with the pins.
func preSplitIterEP(cm *CostModel, par Parallelism, ep EPConfig, b Batch) Cost {
	sharded := cm.isMoE && ep.Enabled()
	iter := func() Cost {
		g := cm.Node.GPU
		world := par.World()
		tokens := b.Tokens()
		if tokens == 0 {
			return Cost{Overhead: cm.overhead(world)}
		}
		rowsPerRank := float64(ceilDiv(tokens, par.SP))

		flopsPerRank := (cm.prefillFlops(b) + cm.decodeFlops(b)) / float64(par.SP) / float64(par.TP)
		eff := cm.gemmEff(rowsPerRank, par.TP)
		computeTime := flopsPerRank / (g.FP8Flops * eff)
		weightBytes := cm.weightReadBytes(tokens)
		if sharded {
			weightBytes = cm.epWeightReadBytes(tokens, ep.Degree)
		}
		memTime := weightBytes / float64(par.TP) / (g.HBMBandwidth * cm.P.MemEff)
		gemm := math.Max(computeTime, memTime)

		attnFlops := 4 * cm.hidden * cm.layers *
			(float64(b.PrefillTokens)*b.PrefillCtx + float64(b.DecodeSeqs)*b.DecodeCtx)
		attnCompute := attnFlops / float64(world) / (g.FP8Flops * cm.P.AttnEff)
		kvBytes := float64(b.DecodeSeqs) * b.DecodeCtx * cm.kvBytesPerToken * kvShare(cm.M.KVHeads, world)
		attnMem := kvBytes / (g.HBMBandwidth * cm.P.MemEff)
		attn := math.Max(attnCompute, attnMem)

		var allReduce, allToAll float64
		arElems, a2aElems := commVolume(cm.hidden, cm.M.QHeads, cm.M.KVHeads, par, rowsPerRank)
		if par.TP > 1 {
			allReduce = 2 * cm.layers * cm.pairwise(arElems/2*cm.P.ActBytes, par.TP)
		}
		if par.SP > 1 {
			allToAll = cm.layers * cm.pairwise(a2aElems*cm.P.ActBytes, par.SP)
		}
		return Cost{
			GEMM:      secs(gemm),
			Attn:      secs(attn),
			AllReduce: secs(allReduce),
			AllToAll:  secs(allToAll),
			Overhead:  cm.overhead(world),
		}
	}
	cost := iter()
	if sharded {
		msg := float64(ceilDiv(b.Tokens(), par.SP)) * cm.hidden * cm.P.ActBytes
		cost.AllToAll += secs(cm.layers * cm.pairwise(2*msg*float64(ep.Degree-1)/float64(ep.Degree), ep.Degree))
	}
	return cost
}
