// Simulator-performance benchmarks: BenchmarkSimulator_* measure the
// simulator itself, not the systems it models — engine hot-path time and
// allocations, simulated seconds advanced per wall second, fleet replay
// cost as the fleet grows, and the wall clock of a scenario sweep on one
// worker against the sweep pool (the simulator's only parallelism).
// BenchmarkFunctional_* measure the functional layer the simulator skips:
// the real Shift engine's tensor kernels and goroutine collectives.
// `make perfbench` runs both sets with -benchmem at a benchstat-friendly
// count for before/after comparisons. The paper's results themselves are
// the deterministic scenario outputs (`simctl run`, gated by `make golden`).
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func benchEnv() experiments.Env {
	e := experiments.DefaultEnv()
	e.Quick = true
	return e
}

func benchCM(b *testing.B) *perf.CostModel {
	b.Helper()
	e := benchEnv()
	return perf.MustNew(e.Node, model.Llama70B(), e.Params)
}

// BenchmarkSimulator_EngineBursty measures the engine hot path: one
// single-GPU replica draining the quick bursty trace (queueing,
// chunked prefill, preemption-by-recompute).
func BenchmarkSimulator_EngineBursty(b *testing.B) {
	cm := benchCM(b)
	tr := trace.Bursty(42, 90*time.Second)
	cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	var res *serve.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = serve.SingleEngine("bench", cfg).Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	reportSimSpeed(b, res)
}

// reportSimSpeed attaches simulated seconds advanced per wall second,
// from the last replay's makespan (every replay is identical).
func reportSimSpeed(b *testing.B, res *serve.Result) {
	b.ReportMetric(float64(b.N)*res.Makespan.Seconds()/b.Elapsed().Seconds(), "sim-s/wall-s")
}

// BenchmarkSimulator_PreemptStorm drives a KV-tight single-GPU replica
// with a closed 256-request batch whose decode growth forces continuous
// preemption-by-recompute against a ~200-deep waiting queue — the case
// the waitQueue push-front rework takes from O(n²) copies to O(1).
func BenchmarkSimulator_PreemptStorm(b *testing.B) {
	cm := benchCM(b)
	cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	tr := workload.Closed("storm", 256, 1024, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := serve.SingleEngine("storm", cfg).Run(tr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Preemptions == 0 {
			b.Fatal("storm workload no longer preempts; resize the benchmark")
		}
	}
}

// BenchmarkSimulator_FleetSerial replays the quick bursty trace on a
// 4-replica independent fleet.
func BenchmarkSimulator_FleetSerial(b *testing.B) {
	cl := serve.DPCluster("bench", serve.Config{CM: benchCM(b), Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
	tr := trace.Bursty(42, 90*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	var res *serve.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = cl.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	reportSimSpeed(b, res)
}

// BenchmarkSimulator_FleetScale replays an independent fleet of 8,
// 32 and 128 single-GPU replicas, each under the same Poisson chat load
// (0.5 req/s per replica for 2 minutes), behind the default router. That
// router reads assigned work only, so an arrival steps no replica: the
// replicas step at the autoscaler's evaluations and in the drain, and
// ns/iter growing with the fleet is the per-arrival cost that still
// does not stay per replica (routing's scan over every replica view).
func BenchmarkSimulator_FleetScale(b *testing.B) {
	sizes := workload.LognormalSize{
		MedianIn: 1000, SigmaIn: 0.6, MinIn: 64, MaxIn: 4096,
		MedianOut: 200, SigmaOut: 0.5, MinOut: 16, MaxOut: 800,
	}
	cfg := serve.Config{CM: benchCM(b), Par: perf.Parallelism{SP: 1, TP: 1}}
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			tr := workload.Poisson("fleet", tensor.NewRNG(42), 0.5*float64(n), 2*time.Minute, sizes, "chat")
			cl := serve.DPCluster("fleet", cfg, n)
			b.ReportAllocs()
			b.ResetTimer()
			var res *serve.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = cl.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*res.Iters), "ns/iter")
		})
	}
}

// BenchmarkSimulator_SweepSerial runs the geo-serving quick grid on one
// worker: the serial sweep reference.
func BenchmarkSimulator_SweepSerial(b *testing.B) {
	e := benchEnv()
	e.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GeoServing(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator_SweepParallel fans the same grid over the default
// (GOMAXPROCS) pool: the delta against SweepSerial is the sweep-level
// speedup.
func BenchmarkSimulator_SweepParallel(b *testing.B) {
	e := benchEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GeoServing(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctional_ShiftUnit serves one functional-shift unit of the
// repo benchmark on a fresh Shift engine: 8 sequences of a 4-layer,
// d=64, 8Q/2KV-head model on (SP=4, TP=2), one 8x32-token prefill step
// on the base config, then 32 one-token-per-sequence decode steps on the
// shift config. Engine construction is outside the timer.
func BenchmarkFunctional_ShiftUnit(b *testing.B) {
	const seqs, prompt, decode = 8, 32, 32
	lay := parallel.Layout{
		Cfg: transformer.Config{Layers: 4, Hidden: 64, QHeads: 8, KVHeads: 2, FFN: 256},
		SP:  4, TP: 2,
	}
	w := transformer.NewWeights(lay.Cfg, 42)
	rng := tensor.NewRNG(7)
	prompts := make([]*tensor.Matrix, seqs)
	for i := range prompts {
		prompts[i] = rng.RandMatrix(prompt, lay.Cfg.Hidden, 1)
	}
	batch := make([]transformer.Chunk, seqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.New(w, lay, core.Options{Threshold: 32})
		if err != nil {
			b.Fatal(err)
		}
		for j := range batch {
			batch[j] = transformer.Chunk{Seq: j, X: prompts[j]}
		}
		b.StartTimer()
		out := s.Forward(batch)
		rows := prompt
		for step := 0; step < decode; step++ {
			for j := range batch {
				x := tensor.SliceRows(out, (j+1)*rows-1, (j+1)*rows)
				tensor.RMSNormRows(x, 1e-6)
				batch[j] = transformer.Chunk{Seq: j, X: x}
			}
			rows = 1
			out = s.Forward(batch)
		}
	}
}

// BenchmarkFunctional_GEMMShapes times tensor.MatMulInto on each GEMM
// shape (rows x inner x cols) of one rank's layer in the ShiftUnit
// benchmark, so benchstat shows the kernel shape by shape. The decode
// step on the shift config (8 rows, one per sequence, on TP=8) runs the
// packed QKV (8x64x24: one q head and its kv head), O (8x8x64), MLP up
// (8x64x32) and down (8x32x64); the prefill on the base config (64 of
// the 256 prompt rows per SP rank, TP=2) runs QKV (64x64x48), O
// (64x32x64), up (64x64x128) and down (64x128x64). Three more shapes
// reach the kernel's other paths: decode attention's P·V for one
// (sequence, head), one query row over a 48-token context (half way
// through the unit's decode) with head dim 8 (1x48x8), runs the one-row
// kernel alone; an odd row count (7x64x24) ends the row pairs with a
// one-row pass; and 30 output columns (8x64x30) leave a vector tail of
// 2. Operands are dense, as activations and weights are.
func BenchmarkFunctional_GEMMShapes(b *testing.B) {
	rng := tensor.NewRNG(42)
	for _, s := range [][3]int{
		{8, 64, 24}, {8, 8, 64}, {8, 64, 32}, {8, 32, 64},
		{64, 64, 48}, {64, 32, 64}, {64, 64, 128}, {64, 128, 64},
		{1, 48, 8}, {7, 64, 24}, {8, 64, 30},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			x, w := rng.RandMatrix(s[0], s[1], 1), rng.RandMatrix(s[1], s[2], 1)
			out := tensor.New(s[0], s[2])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, w)
			}
		})
	}
}
