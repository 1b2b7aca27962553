package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ExtensionEP evaluates the paper's stated future work — combining SP
// with expert parallelism for MoE models (Section 4.6) — on both MoE
// models: Shift Parallelism with and without EP sharding of the
// experts, at small and large context.
func ExtensionEP(e Env) (*stats.Table, error) {
	type axis struct {
		m    model.Config
		cm   *perf.CostModel
		name string
		par  perf.Parallelism
		ep   perf.EPConfig
	}
	var axes []axis
	for _, m := range []model.Config{model.Llama17B16E(), model.Qwen30BA3B()} {
		if m.Name == "Qwen-30B-A3B" {
			m.KVDType = model.FP8
		}
		cm, err := perf.New(e.Node, m, e.Params)
		if err != nil {
			return nil, err
		}
		axes = append(axes,
			axis{m, cm, "Shift " + BasePar(m).String(), BasePar(m), perf.EPConfig{}},
			axis{m, cm, "Shift " + BasePar(m).String() + "+EP8", BasePar(m), perf.EPConfig{Degree: 8}})
		if m.Name == "Llama-17B-16E" {
			// EP frees enough memory to deploy the full-SP base config
			// that plain Shift cannot (Section 4.6's memory wall).
			axes = append(axes, axis{m, cm, "Shift (SP=8)+EP8", perf.Parallelism{SP: 8, TP: 1}, perf.EPConfig{Degree: 8}})
		}
	}
	// Configurations whose weights leave no KV room are reported as holes
	// (none today: EP8 is what makes full SP deployable).
	var cells []cell
	for _, a := range axes {
		if a.cm.KVCapacityTokens(a.par, a.ep, true) <= 0 {
			continue
		}
		cl := serve.SingleEngine(a.name, serve.Config{CM: a.cm, Par: a.par, Strategy: serve.StrategyShift, EP: a.ep})
		cells = append(cells, pointCells(a.m.Name+"/"+a.name, cl, 4096, 250, e.scaleMin(240, 160))...)
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Model", "Config", "Weights GB/GPU", "KV tokens", "TTFT ms", "TPOT ms", "Throughput tok/s")
	for _, a := range axes {
		weights := a.cm.WeightBytesPerGPU(a.par, a.ep, true) / 1e9
		kv := a.cm.KVCapacityTokens(a.par, a.ep, true)
		if kv <= 0 {
			tab.AddRow(a.m.Name, a.name, weights, 0, "n/a", "n/a", "n/a")
			continue
		}
		p, err := pointOf(a.m.Name+"/"+a.name, res)
		if err != nil {
			return nil, err
		}
		res = res[2:]
		tab.AddRow(a.m.Name, a.name, weights, kv, ms(p.ttft), ms(p.tpot), p.tput)
	}
	return tab, nil
}

// AblationPrefixCache measures vLLM-style automatic prefix caching on
// the agentic Azure twin (where turns share long repo prefixes) under
// Shift Parallelism.
func AblationPrefixCache(e Env, rates []float64) (*stats.Table, error) {
	m := model.Llama70B()
	cm, err := perf.New(e.Node, m, e.Params)
	if err != nil {
		return nil, err
	}
	if rates == nil {
		rates = []float64{0, 0.3, 0.6, 0.9}
		if e.Quick {
			rates = []float64{0, 0.6}
		}
	}
	tr := traceWindow(e, trace.AzureCode(e.Seed), 8)
	cells := make([]cell, len(rates))
	for i, rate := range rates {
		cfg := serve.Config{
			CM: cm, Par: perf.Parallelism{SP: 8, TP: 1},
			Strategy: serve.StrategyShift, PrefixCacheHitRate: rate,
		}
		cells[i] = cell{name: fmt.Sprintf("hit=%v", rate), sys: serve.SingleEngine("apc", cfg), trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Hit rate", "p50 TTFT ms", "p99 TTFT ms", "p50 Compl ms", "Throughput tok/s")
	for i, res := range results {
		tab.AddRow(rates[i], res.TTFT.Median(), res.TTFT.P99(), res.Completion.Median(), res.Throughput())
	}
	return tab, nil
}
