package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// NominalGPUHourUSD prices one single-GPU replica-hour for the
// cost-per-token axis of the autoscaling trade-off (an H200 on-demand
// ballpark; the comparison between policies is what matters, not the
// absolute figure).
const NominalGPUHourUSD = 4.0

// autoscaleTrace is the Figure 7 bursty workload stamped with SLOs so
// attainment-driven scaling has a measured signal: interactive traffic
// wants a fast first token, batch bursts only care about finishing.
// Quick runs keep 3 minutes rather than burstyTrace's 90 seconds: the
// 90-second window floors the bursts at sizes a two-replica fleet
// absorbs without queueing, which would make every scaling policy a
// no-op and the sweep vacuous.
func autoscaleTrace(e Env) *workload.Trace {
	dur := 10 * time.Minute
	if e.Quick {
		dur = 3 * time.Minute
	}
	tr := trace.Bursty(e.Seed, dur)
	tr.Stamp("interactive", 1, interactiveSLO)
	tr.Stamp("batch", 0, batchSLO)
	return tr
}

// autoscaleColdStarts is the sweep's cold-start axis: pre-warmed
// standby, a container-restart-sized pause, and a full model download +
// load. Quick runs drop the slowest point.
func autoscaleColdStarts(e Env) []time.Duration {
	if e.Quick {
		return []time.Duration{0, 15 * time.Second}
	}
	return []time.Duration{0, 15 * time.Second, 60 * time.Second}
}

// Autoscaling is the replica-fleet scaling scenario: the Figure 7 bursty
// trace replayed over a fleet of single-GPU Llama-70B replicas under
// every autoscaler policy x cold-start penalty, reporting the measured
// latency/cost trade-off curve — SLO attainment per class against
// replica-seconds consumed and cost per million tokens. The static
// policy rows are the fixed-fleet baseline the dynamic policies must
// beat on cost (at comparable attainment) or on attainment (at
// comparable cost).
func Autoscaling(e Env, coldStarts []time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	if coldStarts == nil {
		coldStarts = autoscaleColdStarts(e)
	}
	tr := autoscaleTrace(e)
	tab := stats.NewTable("Policy", "ColdStart", "Fleet0", "Fleet mean/peak",
		"Replica-s", "$/Mtok", "Int TTFT-SLO %", "Batch TTFT-SLO %",
		"p50 TTFT ms", "p99 TTFT ms", "Ups", "Downs", "Rejected")
	// Static baselines at several fixed fleet sizes anchor the
	// provisioned-vs-attainment curve: the cheap end misses SLOs under
	// bursts, the expensive end buys attainment with idle replica-seconds.
	// Cold start never applies to a fleet that never spawns.
	type axis struct {
		policy  string
		cold    time.Duration
		initial int
	}
	var axes []axis
	for _, n := range []int{autoscaleInitial, (autoscaleInitial + autoscaleMax) / 2, autoscaleMax} {
		axes = append(axes, axis{policy: "static", initial: n})
	}
	for _, name := range serve.AutoscalerNames {
		if name == "static" {
			continue
		}
		for _, cold := range coldStarts {
			axes = append(axes, axis{name, cold, autoscaleInitial})
		}
	}
	cells := make([]cell, len(axes))
	for i, a := range axes {
		cl, err := autoscaleCluster(cm, a.policy, a.cold, a.initial)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{name: fmt.Sprintf("%s/%d/cold=%v", a.policy, a.initial, a.cold), sys: cl, trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	for i, a := range axes {
		res := results[i]
		interactive := attainment(res, "interactive")
		batch := attainment(res, "batch")
		ttft := classTTFT(res, "interactive")
		tab.AddRow(a.policy, a.cold, a.initial,
			fmt.Sprintf("%.1f/%d", res.MeanFleet(), res.PeakFleet()),
			res.ReplicaSeconds, res.CostPerMToken(NominalGPUHourUSD),
			100*interactive.TTFTRate(), 100*batch.TTFTRate(),
			ttft.Median(), ttft.P99(),
			res.ScaleUps, res.ScaleDowns, res.Rejected)
	}
	return tab, nil
}

// Fleet bounds of the sweep: dynamic policies start at the cheap static
// baseline and may grow to one p5en node's worth of single-GPU replicas.
// Min equals the initial size so the comparison against the same-sized
// static baseline isolates what scaling up buys (and costs).
const (
	autoscaleInitial = 2
	autoscaleMax     = 8
)

// autoscaleCluster builds one sweep cell's deployment: a fleet of
// independent single-GPU replicas starting (and floored) at initial,
// capped at 8 (one p5en node's worth), evaluated every 5 seconds.
func autoscaleCluster(cm *perf.CostModel, policy string, cold time.Duration, initial int) (serve.Cluster, error) {
	scaler, err := serve.NewAutoscaler(policy)
	if err != nil {
		return serve.Cluster{}, err
	}
	cl := serve.DPCluster("auto-"+policy, serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, initial)
	cl.Autoscale = &serve.AutoscaleConfig{
		Scaler:    scaler,
		Interval:  5 * time.Second,
		ColdStart: cold,
		Min:       autoscaleInitial,
		Max:       autoscaleMax,
	}
	return cl, nil
}

// FleetTimeline renders one policy's per-interval fleet size against
// queue depth — the scaling dynamics behind the sweep's summary rows —
// from the run's obs samples (on e.Obs, or a fresh observer).
func FleetTimeline(e Env, policy string, cold time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	cl, err := autoscaleCluster(cm, policy, cold, autoscaleInitial)
	if err != nil {
		return nil, err
	}
	if e.Obs == nil {
		e.Obs = obs.NewObserver()
	}
	if _, err := runCells(e, []cell{{name: policy, sys: cl, trace: autoscaleTrace(e)}}); err != nil {
		return nil, err
	}
	tab := stats.NewTable("t", "Desired", "Active", "Warming", "Draining", "Queue")
	for _, s := range e.Obs.Samples() {
		tab.AddRow(s.At, s.Desired, s.Active, s.Warming, s.Draining, s.QueuedRequests)
	}
	return tab, nil
}
