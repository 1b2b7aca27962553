package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file measures the simulator itself, not the systems it models:
// wall-clock to replay the geobench sweep grid serially versus on the
// worker pools, simulated-seconds advanced per wall-second, and the
// engine hot path's allocation profile. The simbench suite scenario
// (`simctl run simbench -json`) emits the result as BENCH_simbench.json,
// giving the perf trajectory a simulator-speed axis alongside the
// serving-quality sweeps. Because every pool width produces
// byte-identical Results (pinned by the serve determinism tests), the
// serial and parallel modes measure the same computation.

// simGridResult is one timed replay of the sweep grid.
type simGridResult struct {
	Wall       time.Duration
	SimSeconds float64
	Cells      int
}

// runSimGrid replays the geoGrid cells (the exact grid GeoServing
// renders — one builder backs both, so the benchmark cannot drift from
// the sweep it measures) on a pool of the given width and times the
// whole sweep; simulated seconds sum the per-cell makespans.
func runSimGrid(cells []geoCell, workers int) (simGridResult, error) {
	pool := NewPool(workers)
	results := make([]*serve.Result, len(cells))
	start := time.Now()
	err := pool.Run(len(cells), func(i int) error {
		res, err := cells[i].run(pool.CellWorkers(workers))
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return simGridResult{}, err
	}
	out := simGridResult{Wall: time.Since(start), Cells: len(cells)}
	for _, res := range results {
		out.SimSeconds += res.Makespan.Seconds()
	}
	return out, nil
}

// bestOf runs the grid reps times and keeps the fastest replay (the
// standard way to strip scheduler and GC noise from a wall-clock
// measurement; the simulation itself is deterministic).
func bestOf(cells []geoCell, workers, reps int) (simGridResult, error) {
	var best simGridResult
	for r := 0; r < reps; r++ {
		got, err := runSimGrid(cells, workers)
		if err != nil {
			return simGridResult{}, err
		}
		if r == 0 || got.Wall < best.Wall {
			best = got
		}
	}
	return best, nil
}

// SimulatorSpeed measures sweep wall-clock serial vs parallel on the
// geobench grid. Workers 0 sizes the parallel mode at GOMAXPROCS; reps
// < 1 defaults to 3. The speedup column is the tentpole's headline
// number — ~1x on a single-core box (the pools degrade to the serial
// path), scaling with cores elsewhere, while simulated-s/wall-s tracks
// serial engine speed across PRs.
func SimulatorSpeed(e Env, reps int) (*stats.Table, error) {
	if reps < 1 {
		reps = 3
	}
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	topos, colds := geoSweepAxes(e, nil)
	cells := geoGrid(e, cm, topos, colds)
	serial, err := bestOf(cells, 1, reps)
	if err != nil {
		return nil, err
	}
	workers := NewPool(e.Workers).Workers()
	parallel, err := bestOf(cells, workers, reps)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Mode", "Workers", "Cores", "CPUs", "Cells", "Wall ms",
		"Sim s", "Sim-s/wall-s", "Speedup")
	// Cores is the scheduler's parallelism budget (GOMAXPROCS), CPUs the
	// machine's logical core count — recorded per row so a trajectory
	// regression can be told apart from a box change.
	cores, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	row := func(mode string, w int, r simGridResult, speedup float64) {
		tab.AddRow(mode, w, cores, cpus, r.Cells, float64(r.Wall)/float64(time.Millisecond),
			r.SimSeconds, r.SimSeconds/r.Wall.Seconds(), speedup)
	}
	row("serial", 1, serial, 1)
	row("parallel", workers, parallel, serial.Wall.Seconds()/parallel.Wall.Seconds())
	return tab, nil
}

// EngineHotPath profiles single-engine replays — the code the tentpole
// optimized — reporting wall-clock, simulated-time ratio, and the
// allocation bill per request (runtime.MemStats deltas around the run).
func EngineHotPath(e Env) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	dur := 10 * time.Minute
	if e.Quick {
		dur = 90 * time.Second
	}
	tr := trace.Bursty(e.Seed, dur)
	tab := stats.NewTable("Scenario", "Requests", "Iters", "Preempt", "Wall ms",
		"Sim-s/wall-s", "Allocs/req", "KB/req")
	scenarios := []struct {
		name string
		par  perf.Parallelism
	}{
		// A single-GPU replica is the KV-tight case: bursts force queueing
		// and preemption storms, exactly the paths the waitQueue rework
		// targets. The TP-8 engine is the roomy comparison point.
		{"engine-1gpu", perf.Parallelism{SP: 1, TP: 1}},
		{"engine-tp8", perf.Parallelism{SP: 1, TP: 8}},
	}
	for _, sc := range scenarios {
		cl := serve.SingleEngine(sc.name, serve.Config{CM: cm, Par: sc.par})
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := cl.Run(tr)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		nReq := float64(len(res.PerRequest))
		tab.AddRow(sc.name, len(res.PerRequest), res.Iters, res.Preemptions,
			float64(wall)/float64(time.Millisecond),
			res.Makespan.Seconds()/wall.Seconds(),
			float64(m1.Mallocs-m0.Mallocs)/nReq,
			float64(m1.TotalAlloc-m0.TotalAlloc)/nReq/1024)
	}
	return tab, nil
}
