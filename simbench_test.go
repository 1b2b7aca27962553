// Simulator-performance benchmarks: BenchmarkSimulator_* measure the
// simulator itself, not the systems it models — engine hot-path time and
// allocations, simulated seconds advanced per wall second, and the
// serial-vs-parallel wall clock of fleet stepping and sweep fan-out.
// BenchmarkFunctional_* measure the functional layer the simulator skips:
// the real Shift engine's tensor kernels and goroutine collectives.
// `make perfbench` runs both sets with -benchmem at a benchstat-friendly
// count for before/after comparisons. The paper's results themselves are
// the deterministic scenario outputs (`simctl run`, gated by `make golden`).
package repro_test

import (
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

// benchFleet builds the 4-replica independent fleet both fleet
// benchmarks run, differing only in pool width.
func benchFleet(b *testing.B, parallelism int) (serve.Cluster, *workload.Trace) {
	b.Helper()
	cl := serve.DPCluster("bench", serve.Config{CM: benchCM(b), Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
	cl.Parallelism = parallelism
	return cl, trace.Bursty(42, 90*time.Second)
}

// BenchmarkSimulator_FleetSerial is the serial-reference fleet replay.
func BenchmarkSimulator_FleetSerial(b *testing.B) {
	cl, tr := benchFleet(b, 1)
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

// BenchmarkSimulator_FleetParallel replays the same fleet on the worker
// pool (byte-identical result; the delta against FleetSerial is the
// concurrency win, ~1x on a single-core box).
func BenchmarkSimulator_FleetParallel(b *testing.B) {
	cl, tr := benchFleet(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Run(tr); err != nil {
			b.Fatal(err)
		}
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
