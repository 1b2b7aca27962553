package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the overload-robustness scenario pair: admission-control
// replays an overload burst on a fixed two-replica fleet under each
// admission policy (shed early vs queue and miss), and retry-storm
// mass-crashes three of four replicas to compare retry disciplines —
// immediate re-submission vs jittered exponential backoff vs backoff
// plus a fleet retry budget — on what the surviving capacity salvages.

// overloadTrace is a steady interactive stream with one sustained burst
// arriving at roughly twice the two-replica fleet's serving rate: the
// queue the burst builds cannot drain before the deadline horizon, so
// without admission control every queued request misses its TTFT while
// still consuming prefill capacity.
// overloadDur is the overload pair's nominal trace duration; the burst
// lands at 40% of it and lasts 20 s at either scale (see overloadTrace
// and retry-storm's mid-burst crash time).
func overloadDur(e Env) time.Duration {
	if e.Quick {
		return 90 * time.Second
	}
	return 4 * time.Minute
}

func overloadTrace(e Env) *workload.Trace {
	dur := overloadDur(e)
	rng := rngFor(e, 0x0ad3155107)
	size := workload.LognormalSize{
		MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
		MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16,
	}
	steady := workload.Poisson("overload-steady", rng, 1.0, dur, size, "interactive")
	burstN := int(150 * dur.Seconds() / 90)
	burst := workload.Burst("overload-burst", rng, burstN,
		time.Duration(0.4*float64(dur)), 20*time.Second, size, "interactive")
	tr := workload.Merge("overload", steady, burst)
	tr.Stamp("interactive", 1, interactiveSLO)
	return tr
}

// AdmissionControl is the shedding scenario: the overload trace on a
// fixed two-replica fleet, swept over the engine admission policies.
// The "none" row queues everything and pays with a collapsed attainment
// tail; deadline-infeasible sheds exactly the waiters whose projected
// first token already misses; projected-attainment latches shedding on
// a window attainment threshold with hysteresis. Goodput counts tokens
// of requests that were actually served.
func AdmissionControl(e Env, policies []string) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		policies = serve.AdmissionPolicyNames
	}
	tr := overloadTrace(e)
	tab := stats.NewTable("Policy", "TTFT-SLO %", "Served TTFT-SLO %",
		"Shed", "Shed %", "ShedTok", "Goodput tok/s", "p99 TTFT ms", "Rejected")
	cells := make([]cell, len(policies))
	for i, p := range policies {
		// MaxSeqs bounds the running batch like vLLM's max_num_seqs: the
		// burst has to queue behind it, which is exactly the regime where
		// admission control earns its keep (unbounded batching would
		// instead absorb the burst as slow concurrent prefills).
		cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16}
		if p != serve.AdmissionNone {
			cfg.Admission = &serve.AdmissionConfig{Policy: p}
		}
		cl := serve.DPCluster("admit-"+p, cfg, 2)
		cl.Router = serve.NewLiveLeastLoadedRouter()
		cells[i] = cell{name: p, sys: cl, trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		att := attainment(res, "interactive")
		servedRate, _, goodput := served(res, att)
		shedPct := 0.0
		if n := len(res.PerRequest); n > 0 {
			shedPct = 100 * float64(res.Shed) / float64(n)
		}
		ttft := classTTFT(res, "interactive")
		tab.AddRow(policies[i], 100*att.TTFTRate(), 100*servedRate,
			res.Shed, shedPct, res.ShedTokens, goodput, ttft.P99(), res.Rejected)
	}
	return tab, nil
}

// served reads what the overload tables report about a run's served
// requests: their TTFT attainment, and the tokens they carried, in
// total and per second of makespan (goodput).
func served(res *serve.Result, att serve.SLOAttainment) (rate float64, tokens int, goodput float64) {
	rate = 1
	if att.Requests > 0 {
		// Rejected requests never meet a finite TTFT deadline, so
		// TTFTMet counts served requests only.
		rate = float64(att.TTFTMet) / float64(att.Requests)
	}
	for _, m := range res.PerRequest {
		if !m.Rejected {
			tokens += m.InputTokens + m.OutputTokens
		}
	}
	if res.Makespan > 0 {
		goodput = float64(tokens) / res.Makespan.Seconds()
	}
	return rate, tokens, goodput
}

// retryModeNames lists the retry-storm sweep's discipline axis in
// presentation order.
var retryModeNames = []string{"immediate", "backoff", "backoff-budget"}

// retryStormPlan mass-crashes three of the four initial replicas at the
// given instant (restarting 45 seconds later) under the named retry
// discipline. Backoff starts at 2 s — long enough that the lost backlog
// trickles back onto the survivor instead of slamming it mid-burst —
// and the budget caps retries at 10% of fresh admissions.
func retryStormPlan(mode string, seed uint64, at time.Duration) (*workload.FaultPlan, error) {
	plan := &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
		{Replica: 0, At: at, Restart: at + 45*time.Second},
		{Replica: 1, At: at, Restart: at + 45*time.Second},
		{Replica: 2, At: at, Restart: at + 45*time.Second},
	}}
	switch mode {
	case "immediate":
		// Legacy discipline: nil RetryPolicy, instant re-submission.
	case "backoff":
		plan.Retry = &workload.RetryPolicy{
			BackoffBase: 2 * time.Second, BackoffCap: 30 * time.Second,
			Jitter: 0.5, Seed: seed,
		}
	case "backoff-budget":
		plan.Retry = &workload.RetryPolicy{
			BackoffBase: 2 * time.Second, BackoffCap: 30 * time.Second,
			Jitter: 0.5, Seed: seed, BudgetRatio: 0.1,
		}
	default:
		return nil, fmt.Errorf("unknown retry mode %q (want one of %v)", mode, retryModeNames)
	}
	return plan, nil
}

// RetryStorm is the mass-crash recovery scenario: the overload trace on
// a fixed four-replica fleet with circuit breakers on, three replicas
// crashing at once ten seconds into the burst — when the lost in-flight
// backlog is at its largest. The re-submitted work is interactive, the
// same class and priority as the fresh arrivals still streaming in, so
// the recovery-window attainment is decided by what the storm does to
// FRESH arrivals on the survivor: immediate retries bury them, backoff
// spreads the storm past the burst, and the budget sheds the excess
// outright. Amplification is retries per arriving request — the storm's
// size relative to the workload.
func RetryStorm(e Env, modes []string, window time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	if len(modes) == 0 {
		modes = retryModeNames
	}
	tr := overloadTrace(e)
	from := time.Duration(0.4*float64(overloadDur(e))) + 10*time.Second
	tab := stats.NewTable("Mode", "Int TTFT-SLO %", "Recovery TTFT-SLO %",
		"Retries", "Amp", "Dropped", "BackoffWait s", "BreakerOpens",
		"p99 TTFT ms", "Rejected")
	cells := make([]cell, len(modes))
	for i, mode := range modes {
		plan, err := retryStormPlan(mode, e.Seed, from)
		if err != nil {
			return nil, err
		}
		cl := serve.DPCluster("storm-"+mode, serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
		cl.Router = serve.NewLiveLeastLoadedRouter()
		cl.Faults = plan
		cl.Breakers = &serve.BreakerConfig{}
		cells[i] = cell{name: mode, sys: cl, trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		overall := attainment(res, "interactive")
		recov := res.WindowAttainment("interactive", from, from+window)
		amp := 0.0
		if n := len(tr.Requests); n > 0 {
			amp = float64(res.Retries) / float64(n)
		}
		ttft := classTTFT(res, "interactive")
		tab.AddRow(modes[i], 100*overall.TTFTRate(), 100*recov.TTFTRate(),
			res.Retries, amp, res.RejectedCrashDropped,
			res.RetryBackoffWait.Seconds(), res.BreakerOpens,
			ttft.P99(), res.Rejected)
	}
	return tab, nil
}
