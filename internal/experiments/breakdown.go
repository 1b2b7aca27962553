package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/specdec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig15 reproduces the cost breakdown of Figure 15: time spent in the
// model GEMMs, attention, all-reduce, all-to-all, and engine overhead
// for a batch workload across parallel configurations and input sizes,
// on the 8xH100 node the paper used for this figure.
func Fig15(e Env, m model.Config) (*stats.Table, error) {
	node := e.Node
	cm, err := perf.New(node, m, e.Params)
	if err != nil {
		return nil, err
	}
	type cfgDesc struct {
		name string
		par  perf.Parallelism
		reps int
	}
	// Mirror the paper's Figure 15 configurations: Llama-70B does not fit
	// one H100, so its data-parallel point is 4 replicas of TP=2; smaller
	// models use 8 single-GPU replicas.
	dp := cfgDesc{"DP=8", perf.Parallelism{SP: 1, TP: 1}, 8}
	if cm.KVCapacityTokens(perf.Parallelism{SP: 1, TP: 1}, perf.EPConfig{}, false) < 32768 {
		dp = cfgDesc{"4x(TP=2)", perf.Parallelism{SP: 1, TP: 2}, 4}
	}
	configs := []cfgDesc{
		dp,
		{"TP=8", perf.Parallelism{SP: 1, TP: 8}, 1},
		{"SP=8", perf.Parallelism{SP: 8, TP: 1}, 1},
		{"(SP=4,TP=2)", perf.Parallelism{SP: 4, TP: 2}, 1},
	}
	lengths := []int{2048, 8192, 32768, 131072}
	if e.Quick {
		lengths = []int{2048, 32768}
	}
	nReq := e.scale(128)
	type axis struct {
		cfg  cfgDesc
		n    int
		cell int // -1: not deployable, no cell
	}
	var axes []axis
	var cells []cell
	for _, c := range configs {
		// A configuration whose weights leave no KV room (e.g. SP=8's
		// replicated weights for Llama-17B-16E) is reported as a hole.
		fits := cm.KVCapacityTokens(c.par, perf.EPConfig{}, false) > 0
		for _, n := range lengths {
			if !fits {
				axes = append(axes, axis{c, n, -1})
				continue
			}
			axes = append(axes, axis{c, n, len(cells)})
			cfg := serve.Config{CM: cm, Par: c.par}
			cl := serve.SingleEngine(c.name, cfg)
			if c.reps > 1 {
				cl = serve.DPCluster(c.name, cfg, c.reps)
				cl.Lockstep = true
			}
			cells = append(cells, cell{name: fmt.Sprintf("%s@%d", c.name, n), sys: cl,
				trace: workload.Closed("batch", nReq, n, 250)})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Config", "Input", "Model s", "Attention s", "All-reduce s", "All-to-all s", "Engine s", "Total s")
	for _, a := range axes {
		var res *serve.Result
		if a.cell >= 0 {
			res = results[a.cell]
		}
		if res == nil || res.Rejected == len(res.PerRequest) {
			// A context this configuration cannot hold (e.g. SP=8 at 128k
			// on Llama-70B) is a hole too.
			tab.AddRow(a.cfg.name, a.n, "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		// Result cost sums across replicas; divide by the replica count so
		// rows compare as wall-clock durations (replicas run concurrently).
		c := res.Cost
		r := time.Duration(a.cfg.reps)
		tab.AddRow(a.cfg.name, a.n,
			secsF(c.GEMM/r), secsF(c.Attn/r), secsF(c.AllReduce/r), secsF(c.AllToAll/r), secsF(c.Overhead/r),
			secsF((c.GEMM+c.Attn+c.AllReduce+c.AllToAll+c.Overhead)/r))
	}
	return tab, nil
}

// Fig16 reproduces the production comparison: latency- and
// throughput-optimized baseline deployments versus Shift Parallelism
// composed with SwiftKV and speculative decoding, on the production
// request mixture. Baseline frameworks (vLLM / SGLang / TRT-LLM) differ
// at first order by engine overhead; we model them as overhead variants
// and report our own stack's compounding.
func Fig16(e Env) (*stats.Table, error) {
	m := model.Llama70B()
	// Throughput from a saturating closed batch of the mixture; latency
	// from an open-loop Poisson stream at a moderate rate (the paper
	// measures the two on separate datasets).
	closed := trace.ProductionMix(e.Seed, e.scaleMin(480, 160))
	openDur := time.Duration(e.scale(240)) * time.Second
	open := trace.ProductionMixOpen(e.Seed+1, 2.5, openDur)

	type system struct {
		name     string
		overhead time.Duration // engine overhead base
		par      perf.Parallelism
		strategy serve.Strategy
		stack    specdec.Stack
		dp       bool
	}
	sk := specdec.DefaultSwiftKV()
	spec := specdec.Spec{Len: 3, Acceptance: 0.7}
	systems := []system{
		{"vLLM latency-opt (TP)", 2 * time.Millisecond, perf.Parallelism{SP: 1, TP: 8}, serve.StrategyStatic, specdec.Stack{Spec: spec}, false},
		{"vLLM throughput-opt (DP)", 2 * time.Millisecond, perf.Parallelism{SP: 1, TP: 1}, serve.StrategyStatic, specdec.Stack{Spec: spec}, true},
		{"SGLang latency-opt (TP)", 1500 * time.Microsecond, perf.Parallelism{SP: 1, TP: 8}, serve.StrategyStatic, specdec.Stack{Spec: spec}, false},
		{"SGLang throughput-opt (DP)", 1500 * time.Microsecond, perf.Parallelism{SP: 1, TP: 1}, serve.StrategyStatic, specdec.Stack{Spec: spec}, true},
		{"TRT-LLM latency-opt (TP)", 1800 * time.Microsecond, perf.Parallelism{SP: 1, TP: 8}, serve.StrategyStatic, specdec.Stack{Spec: spec}, false},
		{"TRT-LLM throughput-opt (DP)", 1800 * time.Microsecond, perf.Parallelism{SP: 1, TP: 1}, serve.StrategyStatic, specdec.Stack{Spec: spec}, true},
		{"Shift Parallelism", 2 * time.Millisecond, perf.Parallelism{SP: 8, TP: 1}, serve.StrategyShift, specdec.Stack{}, false},
		{"Shift + SwiftKV", 2 * time.Millisecond, perf.Parallelism{SP: 8, TP: 1}, serve.StrategyShift, specdec.Stack{SwiftKV: &sk}, false},
		{"Shift + SwiftKV + SpecDec", 2 * time.Millisecond, perf.Parallelism{SP: 8, TP: 1}, serve.StrategyShift, specdec.Stack{Spec: spec, SwiftKV: &sk}, false},
	}

	var cells []cell
	for _, s := range systems {
		params := e.Params
		params.OverheadBase = s.overhead
		cm, err := perf.New(e.Node, m, params)
		if err != nil {
			return nil, err
		}
		cfg := serve.Config{CM: cm, Par: s.par, Strategy: s.strategy, Stack: s.stack}
		cl := serve.SingleEngine(s.name, cfg)
		if s.dp {
			cl = serve.DPCluster(s.name, cfg, e.Node.NumGPUs)
			cl.Lockstep = true
		}
		cells = append(cells, cell{name: s.name + "/closed", sys: cl, trace: closed},
			cell{name: s.name + "/open", sys: cl, trace: open})
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "Throughput tok/s", "p95 Completion ms", "p50 Completion ms")
	for i, s := range systems {
		lat := res[2*i+1].Completion
		tab.AddRow(s.name, res[2*i].Throughput(), lat.Percentile(95), lat.Median())
	}
	return tab, nil
}

// Eq1 tabulates the shift-model weight overhead of Eq. 1 across base
// configurations for each model.
func Eq1(e Env) *stats.Table {
	tab := stats.NewTable("Model", "Base", "Base GB/GPU", "Shift GB/GPU", "Total GB/GPU", "Overhead")
	for _, m := range model.All() {
		cm := perf.MustNew(e.Node, m, e.Params)
		for _, par := range []perf.Parallelism{{SP: 8, TP: 1}, {SP: 4, TP: 2}, {SP: 2, TP: 4}} {
			base := cm.WeightBytesPerGPU(par, perf.EPConfig{}, false) / 1e9
			total := cm.WeightBytesPerGPU(par, perf.EPConfig{}, true) / 1e9
			tab.AddRow(m.Name, par.String(), base, total-base, total,
				fmt.Sprintf("%.1f%%", 100*(total/base-1)))
		}
	}
	return tab
}

// AblationThreshold sweeps Algorithm 2's shift threshold (design
// decision D1): too low never escapes decode-optimized TP at moderate
// load; too high never shifts and pays SP's decode penalty.
func AblationThreshold(e Env, thresholds []int) (*stats.Table, error) {
	m := model.Llama70B()
	cm, err := perf.New(e.Node, m, e.Params)
	if err != nil {
		return nil, err
	}
	if thresholds == nil {
		thresholds = []int{1, 64, 256, 1024, 4096, 1 << 20}
		if e.Quick {
			thresholds = []int{1, 256, 1 << 20}
		}
	}
	tr := burstyTrace(e)
	cells := make([]cell, len(thresholds))
	for i, thr := range thresholds {
		name := fmt.Sprintf("thr=%d", thr)
		cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift, ShiftThreshold: thr}
		cells[i] = cell{name: name, sys: serve.SingleEngine(name, cfg), trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Threshold", "p50 TTFT ms", "p50 TPOT ms", "Throughput tok/s", "Base iters", "Shift iters")
	for i, res := range results {
		tab.AddRow(thresholds[i], res.TTFT.Median(), res.TPOT.Median(), res.Throughput(), res.BaseIters, res.ShiftIters)
	}
	return tab, nil
}

// AblationChunkBudget sweeps the chunked-prefill token budget (D4).
func AblationChunkBudget(e Env, budgets []int) (*stats.Table, error) {
	m := model.Llama70B()
	cm, err := perf.New(e.Node, m, e.Params)
	if err != nil {
		return nil, err
	}
	if budgets == nil {
		budgets = []int{1024, 2048, 4096, 8192, 16384}
		if e.Quick {
			budgets = []int{2048, 8192}
		}
	}
	tr := burstyTrace(e)
	cells := make([]cell, len(budgets))
	for i, b := range budgets {
		name := fmt.Sprintf("chunk=%d", b)
		cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift, ChunkBudget: b}
		cells[i] = cell{name: name, sys: serve.SingleEngine(name, cfg), trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Chunk budget", "p50 TTFT ms", "p99 TTFT ms", "p50 TPOT ms", "Throughput tok/s")
	for i, res := range results {
		tab.AddRow(budgets[i], res.TTFT.Median(), res.TTFT.P99(), res.TPOT.Median(), res.Throughput())
	}
	return tab, nil
}

// AblationMemoryStrategy compares separate-models against on-the-fly
// slicing (D2): slicing saves the 1/SP weight overhead but pays a GEMM
// transpose penalty on every iteration. Each row's KV tokens are the
// budget its engine is sized with (before rounding to whole blocks).
func AblationMemoryStrategy(e Env) (*stats.Table, error) {
	m := model.Llama70B()
	strategies := []struct {
		name   string
		sliced bool
	}{
		{"separate-models", false},
		{"on-the-fly-slicing", true},
	}
	par := perf.Parallelism{SP: 8, TP: 1}
	cms := make([]*perf.CostModel, len(strategies))
	var cells []cell
	for i, s := range strategies {
		params := e.Params
		params.OnTheFlySlicing = s.sliced
		cm, err := perf.New(e.Node, m, params)
		if err != nil {
			return nil, err
		}
		cms[i] = cm
		cl := serve.SingleEngine(s.name, serve.Config{CM: cm, Par: par, Strategy: serve.StrategyShift})
		cells = append(cells, pointCells(s.name, cl, 4096, 250, e.scale(240))...)
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Strategy", "Weights GB/GPU", "KV tokens", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for i, s := range strategies {
		p, err := pointOf(s.name, res[2*i:])
		if err != nil {
			return nil, err
		}
		weights := cms[i].WeightBytesPerGPU(par, perf.EPConfig{}, true) / 1e9
		tab.AddRow(s.name, weights, cms[i].KVCapacityTokens(par, perf.EPConfig{}, true),
			ms(p.ttft), ms(p.tpot), p.tput)
	}
	return tab, nil
}

// AblationDPLockstep quantifies the vLLM DP lockstep cost (why DP
// underperforms its per-replica sum on heterogeneous traffic).
func AblationDPLockstep(e Env) (*stats.Table, error) {
	m := model.Llama70B()
	cm, err := perf.New(e.Node, m, e.Params)
	if err != nil {
		return nil, err
	}
	tr := traceWindow(e, trace.AzureCode(e.Seed), 8)
	var cells []cell
	for _, lockstep := range []bool{true, false} {
		cl := serve.DPCluster("dp", serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, e.Node.NumGPUs)
		cl.Lockstep = lockstep
		name := "independent replicas"
		if lockstep {
			name = "lockstep (vLLM DP)"
		}
		cells = append(cells, cell{name: name, sys: cl, trace: tr})
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("DP stepping", "p50 TTFT ms", "p99 TTFT ms", "Throughput tok/s")
	for i, res := range results {
		tab.AddRow(cells[i].name, res.TTFT.Median(), res.TTFT.P99(), res.Throughput())
	}
	return tab, nil
}

func secsF(d time.Duration) float64 { return d.Seconds() }
