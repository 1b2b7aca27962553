// Package experiments implements one entry point per table and figure of
// the paper's evaluation section, plus the extension scenarios the
// roadmap grew (routing, autoscaling, geo serving, simulator speed).
// Each function builds the workload, runs the serving simulator (or the
// functional engines), and returns the same rows/series the paper
// reports. Every entry point is registered as an internal/scenario
// Scenario (see registry.go) — the per-experiment index — which is what
// cmd/simctl and the top-level benchmarks drive; sweeps fan their cells
// out over the Env.Workers pool (see pool.go).
package experiments

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Env fixes the hardware, calibration, and scale of an experiment run.
type Env struct {
	Node   hw.Node
	Params perf.Params
	Seed   uint64
	// Quick shrinks workloads (for tests and benches); full-size runs
	// reproduce the paper's scales.
	Quick bool
	// Workers bounds the sweep worker pool, the only parallelism: each
	// cell runs its deployment on one goroutine. 0 uses GOMAXPROCS, 1
	// runs the cells in order. Results are byte-identical at every
	// setting — sweep cells are independent and rows assemble in
	// submission order.
	// Mirrors scenario.Env (the registry's copy of these knobs); the two
	// convert directly.
	Workers int
	// Obs, when set, collects request lifecycle spans and controller
	// time series from the scenario's simulator runs (see internal/obs
	// and each scenario for which runs it instruments). nil keeps every
	// run on the untraced fast path.
	Obs *obs.Observer
}

// DefaultEnv is the paper's environment: one p5en node (8xH200).
func DefaultEnv() Env {
	return Env{Node: hw.P5enNode(), Params: perf.DefaultParams(), Seed: 42}
}

// scale shrinks workload sizes under Quick.
func (e Env) scale(n int) int {
	if e.Quick {
		if n >= 16 {
			return n / 8
		}
		return n
	}
	return n
}

// scaleMin shrinks like scale but never below floor — used where the
// measurement needs saturation (peak-throughput closed batches).
func (e Env) scaleMin(n, floor int) int {
	s := e.scale(n)
	if s < floor {
		return floor
	}
	return s
}

// BasePar returns the paper's base configuration for each model:
// full SP for the dense models and Qwen-30B-A3B (with KV replication),
// (SP=4, TP=2) for Llama-17B-16E whose weights barely fit one GPU
// (Section 4.6).
func BasePar(m model.Config) perf.Parallelism {
	if m.Name == "Llama-17B-16E" {
		return perf.Parallelism{SP: 4, TP: 2}
	}
	return perf.Parallelism{SP: 8, TP: 1}
}

// clusters builds the four standard deployments for a model. DP replicas
// that cannot fit the model on one GPU are dropped with a note (the
// paper's L17B-16E DP uses a 2-GPU replica in that case).
func (e Env) clusters(m model.Config) (map[string]serve.Cluster, error) {
	cm, err := perf.New(e.Node, m, e.Params)
	if err != nil {
		return nil, err
	}
	return serve.StandardClusters(cm, BasePar(m), e.Node.NumGPUs)
}

// Order is the presentation order of the compared systems.
var Order = []string{"DP", "TP", "SP", "Shift"}

// Fig12 reproduces Figure 12 (and the headline Figure 1): minimum
// latency (lone request) and peak throughput (saturating closed batch)
// for 4k-input / 250-output requests.
func Fig12(e Env, m model.Config) (*stats.Table, error) {
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, err
	}
	in, out := 4096, 250
	nReq := e.scaleMin(400, 160)
	type cell struct {
		ttft, tpot time.Duration
		tput       float64
	}
	cells, err := runCells(e, len(Order), func(i int) (cell, error) {
		cl := clusters[Order[i]]
		ttft, tpot, err := cl.MinLatency(in, out)
		if err != nil {
			return cell{}, fmt.Errorf("%s: %w", Order[i], err)
		}
		tput, err := cl.PeakThroughput(nReq, in, out)
		if err != nil {
			return cell{}, fmt.Errorf("%s: %w", Order[i], err)
		}
		return cell{ttft, tpot, tput}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "TTFT ms", "TPOT ms", "Throughput tok/s",
		"Response tok/s", "Generation tok/s")
	for i, c := range cells {
		tab.AddRow(Order[i],
			ms(c.ttft), ms(c.tpot), c.tput,
			float64(in)/c.ttft.Seconds(), 1/c.tpot.Seconds())
	}
	return tab, nil
}

// Fig13 reproduces Figure 13: minimum TTFT/TPOT and peak throughput
// across input context sizes 2k-128k (250 output tokens).
func Fig13(e Env, m model.Config, systems []string) (*stats.Table, error) {
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, err
	}
	if systems == nil {
		systems = Order
	}
	lengths := []int{2048, 4096, 8192, 16384, 32768, 65536, 131072}
	if e.Quick {
		lengths = []int{2048, 8192, 32768}
	}
	type axis struct {
		name string
		n    int
	}
	var axes []axis
	for _, name := range systems {
		for _, n := range lengths {
			axes = append(axes, axis{name, n})
		}
	}
	type cell struct {
		ttft, tpot time.Duration
		tput       float64
	}
	cells, err := runCells(e, len(axes), func(i int) (cell, error) {
		a := axes[i]
		cl := clusters[a.name]
		ttft, tpot, err := cl.MinLatency(a.n, 250)
		if err != nil {
			return cell{}, fmt.Errorf("%s @%d: %w", a.name, a.n, err)
		}
		// Saturation sized down as contexts grow (fixed token volume).
		nReq := e.scale(max(32, 1<<20/a.n*4))
		tput, err := cl.PeakThroughput(nReq, a.n, 250)
		if err != nil {
			return cell{}, fmt.Errorf("%s @%d: %w", a.name, a.n, err)
		}
		return cell{ttft, tpot, tput}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "Input", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for i, c := range cells {
		tab.AddRow(axes[i].name, axes[i].n, ms(c.ttft), ms(c.tpot), c.tput)
	}
	return tab, nil
}

// Fig14 reproduces Figure 14: completion time vs arrival rate for 8k
// input / 250 output Poisson traffic.
func Fig14(e Env, m model.Config, rates []float64) (*stats.Table, error) {
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, err
	}
	if rates == nil {
		rates = []float64{0.5, 1, 2, 4, 6, 8, 10, 12}
		if e.Quick {
			rates = []float64{1, 4, 8}
		}
	}
	dur := time.Duration(e.scale(240)) * time.Second
	type axis struct {
		name string
		rate float64
	}
	var axes []axis
	for _, name := range []string{"DP", "TP", "Shift"} { // the paper's Fig 14 lines
		for _, rate := range rates {
			axes = append(axes, axis{name, rate})
		}
	}
	results, err := runCells(e, len(axes), func(i int) (*serve.Result, error) {
		tr := poissonTrace(e, axes[i].rate, dur)
		return clusters[axes[i].name].Run(tr)
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "Rate req/s", "p50 Completion ms", "Mean Completion ms",
		"p50 TTFT ms", "p95 TTFT ms", "p99 TTFT ms")
	for i, res := range results {
		ttft := res.TTFT.Percentiles(50, 95, 99)
		tab.AddRow(axes[i].name, axes[i].rate, res.Completion.Median(), res.Completion.Mean(),
			ttft[0], ttft[1], ttft[2])
	}
	return tab, nil
}

func poissonTrace(e Env, rate float64, dur time.Duration) *workload.Trace {
	rng := rngFor(e, uint64(rate*1000))
	return workload.Poisson(fmt.Sprintf("poisson-%.1f", rate), rng, rate, dur,
		workload.FixedSize{In: 8192, Out: 250}, "uniform")
}

// Fig17 reproduces Figure 17: peak throughput and minimum latency across
// all four Table 4 models and input lengths, including the MoE models'
// special configurations (KV replication; (SP=4,TP=2) base).
func Fig17(e Env) (*stats.Table, error) {
	lengths := []int{2048, 8192, 32768, 131072}
	if e.Quick {
		lengths = []int{2048, 32768}
	}
	type axis struct {
		m      model.Config
		cl     serve.Cluster
		system string
		n      int
	}
	var axes []axis
	for _, m := range model.All() {
		if m.Name == "Qwen-30B-A3B" {
			// FP8 KV in production configs for the small-KV-head model.
			m.KVDType = model.FP8
		}
		clusters, err := e.clusters(m)
		if err != nil {
			return nil, err
		}
		for _, name := range Order {
			for _, n := range lengths {
				axes = append(axes, axis{m, clusters[name], name, n})
			}
		}
	}
	type cell struct {
		ttft, tpot time.Duration
		tput       float64
		// DP cannot serve very long contexts for L17B-16E (weights leave
		// too little KV on one GPU); report the hole instead of failing
		// (Section 4.6).
		noLatency, noThroughput bool
	}
	cells, err := runCells(e, len(axes), func(i int) (cell, error) {
		a := axes[i]
		ttft, tpot, lerr := a.cl.MinLatency(a.n, 250)
		if lerr != nil {
			return cell{noLatency: true, noThroughput: true}, nil
		}
		nReq := e.scale(max(16, 1<<19/a.n*4))
		tput, terr := a.cl.PeakThroughput(nReq, a.n, 250)
		if terr != nil {
			return cell{ttft: ttft, tpot: tpot, noThroughput: true}, nil
		}
		return cell{ttft: ttft, tpot: tpot, tput: tput}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Model", "System", "Input", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for i, c := range cells {
		a := axes[i]
		switch {
		case c.noLatency:
			tab.AddRow(a.m.Name, a.system, a.n, "n/a", "n/a", "n/a")
		case c.noThroughput:
			tab.AddRow(a.m.Name, a.system, a.n, ms(c.ttft), ms(c.tpot), "n/a")
		default:
			tab.AddRow(a.m.Name, a.system, a.n, ms(c.ttft), ms(c.tpot), c.tput)
		}
	}
	return tab, nil
}

// Table1 derives the qualitative tradeoff matrix of Table 1 from
// measured Fig-12-style points: for each metric, systems within 15% of
// the best get "Best", within 2x "Good", else "Poor".
func Table1(e Env, m model.Config) (*stats.Table, error) {
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, err
	}
	type point struct{ ttft, tpot, tput float64 }
	cells, err := runCells(e, len(Order), func(i int) (point, error) {
		cl := clusters[Order[i]]
		ttft, tpot, err := cl.MinLatency(4096, 250)
		if err != nil {
			return point{}, err
		}
		tput, err := cl.PeakThroughput(e.scaleMin(240, 160), 4096, 250)
		if err != nil {
			return point{}, err
		}
		return point{ms(ttft), ms(tpot), tput}, nil
	})
	if err != nil {
		return nil, err
	}
	pts := map[string]point{}
	for i, p := range cells {
		pts[Order[i]] = p
	}
	grade := func(v, best float64, lowerBetter bool) string {
		r := v / best
		if !lowerBetter {
			r = best / v
		}
		switch {
		case r <= 1.15:
			return "Best"
		case r <= 2:
			return "Good"
		default:
			return "Poor"
		}
	}
	bestTTFT, bestTPOT, bestTput := pts[Order[0]].ttft, pts[Order[0]].tpot, pts[Order[0]].tput
	for _, p := range pts {
		bestTTFT = min(bestTTFT, p.ttft)
		bestTPOT = min(bestTPOT, p.tpot)
		bestTput = max(bestTput, p.tput)
	}
	tab := stats.NewTable("System", "TTFT", "TPOT", "Throughput")
	for _, name := range Order {
		p := pts[name]
		tab.AddRow(name, grade(p.ttft, bestTTFT, true), grade(p.tpot, bestTPOT, true), grade(p.tput, bestTput, false))
	}
	return tab, nil
}

// Table3 reproduces the optimal-parallelism matrix: which system wins
// each (metric, traffic) cell.
func Table3(e Env, m model.Config) (*stats.Table, error) {
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, err
	}
	static := []string{"DP", "TP", "SP"}
	// Low traffic: lone request. High traffic: saturated batch.
	type point struct{ lowTTFT, lowTPOT, highTput, highTTFT, highTPOT float64 }
	cells, err := runCells(e, len(static), func(i int) (point, error) {
		cl := clusters[static[i]]
		ttft, tpot, err := cl.MinLatency(4096, 250)
		if err != nil {
			return point{}, err
		}
		res, err := cl.Run(workload.Closed("hi", e.scaleMin(240, 160), 4096, 250))
		if err != nil {
			return point{}, err
		}
		return point{ms(ttft), ms(tpot), res.Throughput(), res.TTFT.Median(), res.TPOT.Median()}, nil
	})
	if err != nil {
		return nil, err
	}
	lowTTFT := map[string]float64{}
	lowTPOT := map[string]float64{}
	highTput := map[string]float64{}
	highTTFT := map[string]float64{}
	highTPOT := map[string]float64{}
	for i, p := range cells {
		name := static[i]
		lowTTFT[name], lowTPOT[name] = p.lowTTFT, p.lowTPOT
		highTput[name], highTTFT[name], highTPOT[name] = p.highTput, p.highTTFT, p.highTPOT
	}
	argMin := func(m map[string]float64) string {
		best, bv := "", 0.0
		for _, k := range static {
			if best == "" || m[k] < bv {
				best, bv = k, m[k]
			}
		}
		return best
	}
	argMax := func(m map[string]float64) string {
		best, bv := "", 0.0
		for _, k := range static {
			if best == "" || m[k] > bv {
				best, bv = k, m[k]
			}
		}
		return best
	}
	tab := stats.NewTable("Metric", "Low Traffic", "High Traffic")
	tab.AddRow("TTFT", argMin(lowTTFT), argMin(highTTFT))
	tab.AddRow("TPOT", argMin(lowTPOT), argMin(highTPOT))
	tab.AddRow("Throughput", argMax(highTput), argMax(highTput))
	return tab, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
