package experiments

import (
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

func rngFor(e Env, salt uint64) *tensor.RNG {
	return tensor.NewRNG(e.Seed ^ salt)
}

// burstyTrace builds the Figure 7 workload at the env's scale.
func burstyTrace(e Env) *workload.Trace {
	dur := 10 * time.Minute
	if e.Quick {
		dur = 90 * time.Second
	}
	return trace.Bursty(e.Seed, dur)
}

// Fig7Table5 replays the bursty synthetic workload on Llama-70B and
// reports Table 5's rows (median TTFT/TPOT, peak throughput), Figure 7's
// throughput over time in buckets of the given width (from the engines'
// iteration records on each run's observer), and each system's result.
func Fig7Table5(e Env, bucket time.Duration) (*stats.Table, *stats.Table, map[string]*serve.Result, error) {
	clusters, err := e.clusters(model.Llama70B())
	if err != nil {
		return nil, nil, nil, err
	}
	tr := burstyTrace(e)
	systems := []string{"DP", "TP", "Shift"} // Table 5's rows
	cells := make([]cell, len(systems))
	for i, name := range systems {
		cl := clusters[name]
		cl.Obs = obs.NewObserver()
		cells[i] = cell{name: name, sys: cl, trace: tr}
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, nil, nil, err
	}
	tab := stats.NewTable("System", "Median TTFT ms", "Median TPOT ms", "Peak Throughput tok/s", "p99 TTFT ms")
	series := stats.NewTable(append([]string{"Bucket"}, systems...)...)
	results := map[string]*serve.Result{}
	rates := make([][]float64, len(systems))
	buckets := 0
	for i, name := range systems {
		// The traced cell's observer is Env.Obs; runCells left it on the
		// cell's deployment.
		o := cells[i].sys.(serve.Cluster).Obs
		results[name] = res[i]
		tab.AddRow(name, res[i].TTFT.Median(), res[i].TPOT.Median(),
			o.ThroughputSeries(5*time.Second).Peak(), res[i].TTFT.P99())
		rates[i] = o.ThroughputSeries(bucket).Rates()
		buckets = max(buckets, len(rates[i]))
	}
	for b := range buckets {
		row := []any{time.Duration(b) * bucket}
		for _, r := range rates {
			if b < len(r) {
				row = append(row, r[b])
			} else {
				row = append(row, "")
			}
		}
		series.AddRow(row...)
	}
	return tab, series, results, nil
}

// Fig8 summarizes the two production trace twins the way Figure 8 plots
// them (request counts, size distributions, arrival rates). Twin
// synthesis is the cost here, so the two builds fan out over the pool.
func Fig8(e Env) (*stats.Table, error) {
	twins := []struct {
		name  string
		build func() *workload.Trace
	}{
		{"Azure LLM Code (twin)", func() *workload.Trace { return trace.AzureCode(e.Seed) }},
		{"Mooncake Conversation (twin)", func() *workload.Trace { return trace.MooncakeConversation(e.Seed) }},
	}
	sums := make([]trace.Stats, len(twins))
	// Summarize cannot fail, so neither can the pool.
	_ = NewPool(e.Workers).Run(len(twins), func(i int) error {
		sums[i] = trace.Summarize(twins[i].build())
		return nil
	})
	tab := stats.NewTable("Trace", "Requests", "Mean In", "Max In", "Mean Out", "Max Out", "Req/s", "Offered tok/s")
	for i, s := range sums {
		tab.AddRow(twins[i].name, s.Requests, s.MeanIn, s.MaxIn, s.MeanOut, s.MaxOut, s.ArrivalsPerS, s.OfferedRate)
	}
	return tab, nil
}

// traceWindow optionally truncates a trace to its first 1/div for Quick
// runs.
func traceWindow(e Env, t *workload.Trace, div int) *workload.Trace {
	if !e.Quick {
		return t
	}
	cut := t.Duration() / time.Duration(div)
	var reqs []workload.Request
	for _, r := range t.Requests {
		if r.Arrival <= cut {
			reqs = append(reqs, r)
		}
	}
	return &workload.Trace{Name: t.Name + "-quick", Requests: reqs}
}

// Fig9Azure replays the Azure code twin on Llama-70B across all four
// systems (Figures 9 and 11a).
func Fig9Azure(e Env) (*stats.Table, map[string]*serve.Result, error) {
	clusters, err := e.clusters(model.Llama70B())
	if err != nil {
		return nil, nil, err
	}
	return replay(e, clusters, traceWindow(e, trace.AzureCode(e.Seed), 8))
}

// Fig10Mooncake replays the Mooncake conversation twin on Qwen-32B with
// FP8 KV cache (Figures 10 and 11b). DP and TP cannot sustain the
// traffic; SP and Shift can — visible as exploding vs flat TTFT.
func Fig10Mooncake(e Env) (*stats.Table, map[string]*serve.Result, error) {
	m := model.Qwen32B()
	m.KVDType = model.FP8 // the paper's mitigation (Section 4.2.2)
	clusters, err := e.clusters(m)
	if err != nil {
		return nil, nil, err
	}
	// Queue growth is the phenomenon under test, so the quick window
	// keeps a third of the trace (enough time for DP/TP to drown).
	return replay(e, clusters, traceWindow(e, trace.MooncakeConversation(e.Seed), 3))
}

func replay(e Env, clusters map[string]serve.Cluster, tr *workload.Trace) (*stats.Table, map[string]*serve.Result, error) {
	cells := make([]cell, len(Order))
	for i, name := range Order {
		cells[i] = cell{name: name, sys: clusters[name], trace: tr}
	}
	res, err := runCells(e, cells)
	if err != nil {
		return nil, nil, err
	}
	tab := stats.NewTable("System", "p50 TTFT ms", "p99 TTFT ms", "p50 TPOT ms", "p99 TPOT ms", "p50 Compl ms", "p99 Compl ms")
	results := map[string]*serve.Result{}
	for i, res := range res {
		results[Order[i]] = res
		tab.AddRow(Order[i],
			res.TTFT.Median(), res.TTFT.P99(),
			res.TPOT.Median(), res.TPOT.P99(),
			res.Completion.Median(), res.Completion.P99())
	}
	return tab, results, nil
}

// Fig11 renders the percentile curves of Figure 11 for a replay's
// results: percentiles 10..99.9 of TTFT, TPOT, and completion.
func Fig11(results map[string]*serve.Result) *stats.Table {
	ps := []float64{10, 25, 50, 75, 90, 95, 99}
	tab := stats.NewTable("System", "Percentile", "TTFT ms", "TPOT ms", "Completion ms")
	for _, name := range Order {
		res, ok := results[name]
		if !ok {
			continue
		}
		for _, p := range ps {
			tab.AddRow(name, p, res.TTFT.Percentile(p), res.TPOT.Percentile(p), res.Completion.Percentile(p))
		}
	}
	return tab
}
