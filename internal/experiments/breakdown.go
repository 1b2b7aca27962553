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
	if cm.KVCapacityTokens(perf.Parallelism{SP: 1, TP: 1}, false) < 32768 {
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
		cfg cfgDesc
		n   int
	}
	var axes []axis
	for _, c := range configs {
		for _, n := range lengths {
			axes = append(axes, axis{c, n})
		}
	}
	cells, err := runCells(e, len(axes), func(i int) (*serve.Result, error) {
		a := axes[i]
		cfg := serve.Config{CM: cm, Par: a.cfg.par}
		var cl serve.Cluster
		if a.cfg.reps > 1 {
			cl = serve.DPCluster(a.cfg.name, cfg, a.cfg.reps)
			cl.Lockstep = true
		} else {
			cl = serve.SingleEngine(a.cfg.name, cfg)
		}
		res, err := cl.Run(workload.Closed("batch", nReq, a.n, 250))
		if err != nil {
			// Configuration cannot hold this context (e.g. SP=8 replicated
			// weights leave no KV room at 128k): report the hole as a row.
			return nil, nil
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Config", "Input", "Model s", "Attention s", "All-reduce s", "All-to-all s", "Engine s", "Total s")
	for i, res := range cells {
		a := axes[i]
		if res == nil || res.Rejected == len(res.PerRequest) {
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

	type cell struct{ tput, p95, p50 float64 }
	cells, err := runCells(e, len(systems), func(i int) (cell, error) {
		s := systems[i]
		params := e.Params
		params.OverheadBase = s.overhead
		cm, err := perf.New(e.Node, m, params)
		if err != nil {
			return cell{}, err
		}
		cfg := serve.Config{CM: cm, Par: s.par, Strategy: s.strategy, Stack: s.stack}
		var cl serve.Cluster
		if s.dp {
			cl = serve.DPCluster(s.name, cfg, e.Node.NumGPUs)
			cl.Lockstep = true
		} else {
			cl = serve.SingleEngine(s.name, cfg)
		}
		resClosed, err := cl.Run(closed)
		if err != nil {
			return cell{}, fmt.Errorf("%s: %w", s.name, err)
		}
		resOpen, err := cl.Run(open)
		if err != nil {
			return cell{}, fmt.Errorf("%s: %w", s.name, err)
		}
		return cell{resClosed.Throughput(), resOpen.Completion.Percentile(95), resOpen.Completion.Median()}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("System", "Throughput tok/s", "p95 Completion ms", "p50 Completion ms")
	for i, c := range cells {
		tab.AddRow(systems[i].name, c.tput, c.p95, c.p50)
	}
	return tab, nil
}

// Eq1 tabulates the shift-model weight overhead of Eq. 1 across base
// configurations for each model.
func Eq1(e Env) *stats.Table {
	tab := stats.NewTable("Model", "Base", "Base GB/GPU", "Shift GB/GPU", "Total GB/GPU", "Overhead")
	for _, m := range model.All() {
		for _, par := range []perf.Parallelism{{SP: 8, TP: 1}, {SP: 4, TP: 2}, {SP: 2, TP: 4}} {
			base := m.WeightBytes() / float64(par.TP) / 1e9
			shift := m.WeightBytes() / float64(par.World()) / 1e9
			tab.AddRow(m.Name, par.String(), base, shift, base+shift,
				fmt.Sprintf("%.1f%%", 100/float64(par.SP)))
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
	cells, err := runCells(e, len(thresholds), func(i int) (*serve.Result, error) {
		cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift, ShiftThreshold: thresholds[i]}
		return serve.SingleEngine(fmt.Sprintf("thr=%d", thresholds[i]), cfg).Run(tr)
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Threshold", "p50 TTFT ms", "p50 TPOT ms", "Throughput tok/s", "Base iters", "Shift iters")
	for i, res := range cells {
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
	cells, err := runCells(e, len(budgets), func(i int) (*serve.Result, error) {
		cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift, ChunkBudget: budgets[i]}
		return serve.SingleEngine(fmt.Sprintf("chunk=%d", budgets[i]), cfg).Run(tr)
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Chunk budget", "p50 TTFT ms", "p99 TTFT ms", "p50 TPOT ms", "Throughput tok/s")
	for i, res := range cells {
		tab.AddRow(budgets[i], res.TTFT.Median(), res.TTFT.P99(), res.TPOT.Median(), res.Throughput())
	}
	return tab, nil
}

// AblationMemoryStrategy compares separate-models against on-the-fly
// slicing (D2): slicing saves the 1/SP weight overhead but pays a GEMM
// transpose penalty on every iteration.
func AblationMemoryStrategy(e Env) (*stats.Table, error) {
	m := model.Llama70B()
	strategies := []struct {
		name    string
		penalty float64
		shift   bool
	}{
		{"separate-models", 1.0, true},
		{"on-the-fly-slicing", 0.88, false},
	}
	par := perf.Parallelism{SP: 8, TP: 1}
	type cell struct {
		weightsGB  float64
		kvTokens   int
		ttft, tpot time.Duration
		tput       float64
	}
	cells, err := runCells(e, len(strategies), func(i int) (cell, error) {
		s := strategies[i]
		params := e.Params
		params.SlicePenalty = s.penalty
		cm, err := perf.New(e.Node, m, params)
		if err != nil {
			return cell{}, err
		}
		cfg := serve.Config{CM: cm, Par: par, Strategy: serve.StrategyShift}
		cl := serve.SingleEngine(s.name, cfg)
		ttft, tpot, err := cl.MinLatency(4096, 250)
		if err != nil {
			return cell{}, err
		}
		tput, err := cl.PeakThroughput(e.scale(240), 4096, 250)
		if err != nil {
			return cell{}, err
		}
		return cell{cm.WeightBytesPerGPU(par, s.shift) / 1e9,
			cm.KVCapacityTokens(par, s.shift), ttft, tpot, tput}, nil
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Strategy", "Weights GB/GPU", "KV tokens", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for i, c := range cells {
		tab.AddRow(strategies[i].name, c.weightsGB, c.kvTokens, ms(c.ttft), ms(c.tpot), c.tput)
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
	modes := []bool{true, false}
	cells, err := runCells(e, len(modes), func(i int) (*serve.Result, error) {
		cl := serve.DPCluster("dp", serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, e.Node.NumGPUs)
		cl.Lockstep = modes[i]
		return cl.Run(tr)
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("DP stepping", "p50 TTFT ms", "p99 TTFT ms", "Throughput tok/s")
	for i, res := range cells {
		name := "independent replicas"
		if modes[i] {
			name = "lockstep (vLLM DP)"
		}
		tab.AddRow(name, res.TTFT.Median(), res.TTFT.P99(), res.Throughput())
	}
	return tab, nil
}

func secsF(d time.Duration) float64 { return d.Seconds() }
