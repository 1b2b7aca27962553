// Package experiments implements one entry point per table and figure of
// the paper's evaluation section, plus the extension scenarios the
// roadmap grew (routing, autoscaling, faults, overload, cost, caching,
// geo serving).
// Each function builds the workload, runs the serving simulator (or the
// functional engines), and returns the same rows/series the paper
// reports. Every entry point is registered as an internal/scenario
// Scenario (see registry.go) — the per-experiment index — which is what
// cmd/simctl and the top-level benchmarks drive. Every simulator run goes
// through one runner, runCells (see pool.go): a sweep builds its cells,
// runCells fans them out over the Env.Workers pool, and Env.Obs traces
// one of them.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Env fixes the hardware, calibration, and scale of an experiment run:
// the registry's scenario.Env, with the scaling helpers the experiments
// share. Env.Obs, when set, is given by runCells to the sweep's marked
// cell, else to its first.
type Env scenario.Env

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

// point is one deployment's minimum latency and peak throughput.
type point struct {
	ttft, tpot time.Duration
	tput       float64
}

// pointCells returns the two cells that measure a deployment's point
// (Section 4.3.1): a lone request on its first engine for the minimum
// latency, and a saturating closed batch of n requests for the peak
// throughput.
func pointCells(name string, cl serve.Cluster, in, out, n int) []cell {
	return []cell{
		{name: name + "/single", sys: cl.Single(), trace: workload.Single(in, out)},
		{name: name + "/closed", sys: cl, trace: workload.Closed("closed", n, in, out)},
	}
}

// pointOf reduces the results of one pointCells pair.
func pointOf(name string, pair []*serve.Result) (point, error) {
	ttft, tpot, err := pair[0].LoneLatency()
	if err != nil {
		return point{}, fmt.Errorf("%s: %w", name, err)
	}
	tput, err := pair[1].BatchThroughput()
	if err != nil {
		return point{}, fmt.Errorf("%s: %w", name, err)
	}
	return point{ttft, tpot, tput}, nil
}

// Fig12 reproduces Figure 12 (and the headline Figure 1): minimum
// latency (lone request) and peak throughput (saturating closed batch)
// for 4k-input / 250-output requests.
func Fig12(e Env, m model.Config) (*stats.Table, error) {
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, err
	}
	in, out := 4096, 250
	var cells []cell
	for _, name := range Order {
		cells = append(cells, pointCells(name, clusters[name], in, out, e.scaleMin(400, 160))...)
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "TTFT ms", "TPOT ms", "Throughput tok/s",
		"Response tok/s", "Generation tok/s")
	for i, name := range Order {
		p, err := pointOf(name, res[2*i:])
		if err != nil {
			return nil, err
		}
		tab.AddRow(name, ms(p.ttft), ms(p.tpot), p.tput,
			float64(in)/p.ttft.Seconds(), 1/p.tpot.Seconds())
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
	var cells []cell
	for _, name := range systems {
		for _, n := range lengths {
			axes = append(axes, axis{name, n})
			// Saturation sized down as contexts grow (fixed token volume).
			cells = append(cells, pointCells(fmt.Sprintf("%s@%d", name, n), clusters[name], n, 250,
				e.scale(max(32, 1<<20/n*4)))...)
		}
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "Input", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for i, a := range axes {
		p, err := pointOf(fmt.Sprintf("%s@%d", a.name, a.n), res[2*i:])
		if err != nil {
			return nil, err
		}
		tab.AddRow(a.name, a.n, ms(p.ttft), ms(p.tpot), p.tput)
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
	systems := []string{"DP", "TP", "Shift"} // the paper's Fig 14 lines
	var cells []cell
	for _, name := range systems {
		for _, rate := range rates {
			cells = append(cells, cell{name: fmt.Sprintf("%s@%v", name, rate), sys: clusters[name],
				trace: poissonTrace(e, rate, dur)})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "Rate req/s", "p50 Completion ms", "Mean Completion ms",
		"p50 TTFT ms", "p95 TTFT ms", "p99 TTFT ms")
	for i, res := range results {
		ttft := res.TTFT.Percentiles(50, 95, 99)
		tab.AddRow(systems[i/len(rates)], rates[i%len(rates)], res.Completion.Median(), res.Completion.Mean(),
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
		model, system string
		n             int
	}
	var axes []axis
	var cells []cell
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
				axes = append(axes, axis{m.Name, name, n})
				cells = append(cells, pointCells(fmt.Sprintf("%s/%s@%d", m.Name, name, n), clusters[name], n, 250,
					e.scale(max(16, 1<<19/n*4)))...)
			}
		}
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Model", "System", "Input", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for i, a := range axes {
		// DP cannot serve very long contexts for L17B-16E (weights leave
		// too little KV on one GPU); report the hole instead of failing
		// (Section 4.6).
		ttft, tpot, err := res[2*i].LoneLatency()
		if err != nil {
			tab.AddRow(a.model, a.system, a.n, "n/a", "n/a", "n/a")
			continue
		}
		if tput, err := res[2*i+1].BatchThroughput(); err != nil {
			tab.AddRow(a.model, a.system, a.n, ms(ttft), ms(tpot), "n/a")
		} else {
			tab.AddRow(a.model, a.system, a.n, ms(ttft), ms(tpot), tput)
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
	var cells []cell
	for _, name := range Order {
		cells = append(cells, pointCells(name, clusters[name], 4096, 250, e.scaleMin(240, 160))...)
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	type grades struct{ ttft, tpot, tput float64 }
	pts := map[string]grades{}
	for i, name := range Order {
		p, err := pointOf(name, res[2*i:])
		if err != nil {
			return nil, err
		}
		pts[name] = grades{ms(p.ttft), ms(p.tpot), p.tput}
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
	var cells []cell
	for _, name := range static {
		cells = append(cells, pointCells(name, clusters[name], 4096, 250, e.scaleMin(240, 160))...)
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	lowTTFT := map[string]float64{}
	lowTPOT := map[string]float64{}
	highTput := map[string]float64{}
	highTTFT := map[string]float64{}
	highTPOT := map[string]float64{}
	for i, name := range static {
		ttft, tpot, err := res[2*i].LoneLatency()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		hi := res[2*i+1]
		lowTTFT[name], lowTPOT[name] = ms(ttft), ms(tpot)
		highTput[name], highTTFT[name], highTPOT[name] = hi.Throughput(), hi.TTFT.Median(), hi.TPOT.Median()
	}
	// best returns the system with the lowest (sign 1) or highest
	// (sign -1) value, the first listed on ties.
	best := func(m map[string]float64, sign float64) string {
		best := static[0]
		for _, k := range static[1:] {
			if sign*m[k] < sign*m[best] {
				best = k
			}
		}
		return best
	}
	tab := stats.NewTable("Metric", "Low Traffic", "High Traffic")
	tab.AddRow("TTFT", best(lowTTFT, 1), best(highTTFT, 1))
	tab.AddRow("TPOT", best(lowTPOT, 1), best(highTPOT, 1))
	tab.AddRow("Throughput", best(highTput, -1), best(highTput, -1))
	return tab, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
