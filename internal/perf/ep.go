package perf

import (
	"fmt"
	"math"
)

// Expert parallelism (EP) for MoE models — the paper's stated future
// work ("there is no prior work that combines SP with EP to further
// optimize sparse models, which we will leave as a future work",
// Section 4.6). This file implements that combination in the cost
// model: experts are sharded EP ways across the engine's GPUs, adding
// two token-routing all-to-alls per layer (dispatch and combine) and
// shrinking the per-rank expert weight footprint and streaming volume.
//
// EP composes with SP and TP: the engine's GPUs simultaneously form the
// sequence/tensor grid of Algorithm 1 and an EP group over the same
// world (how vLLM and DeepSpeed deploy MoE models). Because EP shards
// only expert weights, the KV cache layout is untouched — so Shift
// Parallelism's SP<->TP switching works identically with EP enabled,
// which is exactly what makes the combination attractive.

// EPConfig enables expert parallelism for an engine.
type EPConfig struct {
	// Degree is the number of expert shards (1 disables EP). Experts are
	// sharded across the engine's world; Degree must divide it.
	Degree int
}

// Enabled reports whether EP is active.
func (e EPConfig) Enabled() bool { return e.Degree > 1 }

// Validate checks the EP degree against a world size.
func (e EPConfig) Validate(world int) error {
	if e.Degree < 0 {
		return fmt.Errorf("perf: EPConfig.Degree %d is negative", e.Degree)
	}
	if e.Degree > 1 && world%e.Degree != 0 {
		return fmt.Errorf("perf: EPConfig.Degree %d does not divide world %d", e.Degree, world)
	}
	return nil
}

// IterEP prices one iteration like Iter, with experts sharded ep ways.
// For dense models or ep.Degree <= 1 it is identical to Iter. It is the
// sum of IterBase and IterAttn, bit for bit.
func (cm *CostModel) IterEP(par Parallelism, ep EPConfig, b Batch) Cost {
	c := cm.IterBase(par, ep, b)
	c.Attn = cm.IterAttn(par, b)
	return c
}

// IterBase returns the batch-size part of IterEP's cost: GEMM,
// all-reduce, all-to-all (with the EP dispatch and combine) and
// overhead, with Attn zero. It reads the batch's token counts but not
// its contexts, so it is the same on every step of a steady decode
// stretch.
func (cm *CostModel) IterBase(par Parallelism, ep EPConfig, b Batch) Cost {
	if err := ep.Validate(par.World()); err != nil {
		panic(err)
	}
	if !cm.isMoE || !ep.Enabled() {
		return cm.base(par, 1, b)
	}
	cost := cm.base(par, ep.Degree, b)

	// Dispatch + combine all-to-alls per layer across the EP group: each
	// rank scatters its rows' hidden states to expert owners and gathers
	// them back.
	msg := float64(ceilDiv(b.Tokens(), par.SP)) * cm.hidden * cm.P.ActBytes
	cost.AllToAll += secs(cm.layers * cm.pairwise(2*msg*float64(ep.Degree-1)/float64(ep.Degree), ep.Degree))
	return cost
}

// epWeightReadBytes is weightReadBytes with the expert portion sharded
// ep ways: the shared (attention) weights stream fully on every rank,
// while each rank streams only its own experts' activated weights.
func (cm *CostModel) epWeightReadBytes(tokens, ep int) float64 {
	dt := float64(cm.M.WeightDType.Bytes())
	shared := cm.M.SharedParams * dt
	expertTotalPerRank := cm.M.ExpertParams() * dt / float64(ep)
	// Tokens activate experts roughly uniformly; per rank the activated
	// expert volume is 1/ep of the batch's total activation, capped by
	// the rank's resident experts.
	activatedPerRank := cm.M.ActiveExpertParams() * dt * float64(tokens) / float64(ep)
	return shared + math.Min(expertTotalPerRank, activatedPerRank)
}
