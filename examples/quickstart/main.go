// Quickstart: the functional Shift Parallelism engine in five minutes.
//
// This example builds a small GQA transformer, deploys it under Shift
// Parallelism with a (SP=4, TP=2) base configuration on 8 simulated
// GPUs, serves one request through prefill and decode, and shows the
// three things the paper's Section 3 is about:
//
//  1. the engine automatically shifts between the base (SP) and shift
//     (TP) configurations on the batched-token threshold (Algorithm 2),
//  2. outputs are identical to a single-device reference run — the KV
//     cache is invariant across the shift (Figure 5/6),
//  3. the shift model costs exactly 1/SP extra weight memory (Eq. 1),
//     printed from the cost model for Llama-70B on the same layout.
//
// It exits non-zero when any output differs from the reference by more
// than 1e-9, or when either configuration ran no iteration.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// tol is the largest |engine - reference| difference the example accepts.
const tol = 1e-9

func main() {
	// A small GQA transformer: 8 query heads sharing 2 KV heads.
	cfg := transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 32}
	weights := transformer.NewWeights(cfg, 2024)

	// Base configuration (SP=4, TP=2) over 8 simulated GPUs. The shift
	// configuration (TP=8) is created automatically and shares the KV
	// cache through the Figure-6 head mapping.
	lay := parallel.Layout{Cfg: cfg, SP: 4, TP: 2}
	engine, err := core.New(weights, lay, core.Options{Threshold: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %v base + TP=%d shift on %d GPUs (threshold %d tokens)\n",
		lay, lay.World(), lay.World(), engine.Threshold)
	fmt.Printf("head ordering (Figure 6): blocks owned in rank order %v\n", lay.HeadOrder())

	// A reference (single device) engine to check against.
	ref := transformer.NewReference(weights)

	// Prefill: a 10-token prompt (> threshold, so the base SP config runs).
	rng := tensor.NewRNG(7)
	prompt := rng.RandMatrix(10, cfg.Hidden, 1)
	out := engine.Forward([]transformer.Chunk{{Seq: 0, X: prompt.Clone()}})
	refOut := ref.Forward([]transformer.Chunk{{Seq: 0, X: prompt}})
	worst := tensor.MaxAbsDiff(out, refOut)
	fmt.Printf("prefill(10 tokens): max |engine - reference| = %.2e\n", worst)

	// Decode: one token at a time (<= threshold, so the shift TP config
	// runs) over the SAME KV cache the SP prefill wrote.
	for step := 0; step < 4; step++ {
		tok := tensor.SliceRows(refOut, refOut.Rows-1, refOut.Rows)
		tensor.RMSNormRows(tok, 1e-6)
		refOut = ref.Forward([]transformer.Chunk{{Seq: 0, X: tok}})
		out = engine.Forward([]transformer.Chunk{{Seq: 0, X: tok.Clone()}})
		diff := tensor.MaxAbsDiff(out, refOut)
		worst = max(worst, diff)
		fmt.Printf("decode step %d: max diff = %.2e\n", step+1, diff)
	}

	base, shift := engine.Iterations()
	fmt.Printf("iterations: %d on base (SP), %d on shift (TP) — Algorithm 2 at work\n", base, shift)

	// Eq. 1: the price of holding both configurations, from the cost
	// model's weight footprint for Llama-70B on the same (SP=4, TP=2)
	// base. The functional engine holds no copy: every rank reads its
	// shard in place.
	cm := perf.MustNew(hw.P5enNode(), model.Llama70B(), perf.DefaultParams())
	par := perf.Parallelism{SP: lay.SP, TP: lay.TP}
	alone := cm.WeightBytesPerGPU(par, perf.EPConfig{}, false)
	both := cm.WeightBytesPerGPU(par, perf.EPConfig{}, true)
	fmt.Printf("%s weights per GPU: base %.2f GB + shift %.2f GB (overhead %.1f%% = 1/SP)\n",
		cm.M.Name, alone/1e9, (both-alone)/1e9, (both/alone-1)*100)

	if worst > tol {
		log.Fatalf("max |engine - reference| = %.2e exceeds %.0e", worst, tol)
	}
	if base == 0 || shift == 0 {
		log.Fatalf("iterations: %d on base, %d on shift; want both configurations to run", base, shift)
	}
}
