package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the failure-injection scenario pair: failure-recovery
// replays the bursty autoscaling workload under named fault plans x
// autoscaler policies on one fleet, and outage-spillover darkens a geo
// run's home region over its midpoint burst to measure what each geo
// routing policy salvages remotely.

// failurePlanNames lists the failure-recovery sweep's fault-plan axis
// in presentation order.
var failurePlanNames = []string{"none", "crash-restart", "crash-dead", "degraded"}

// failureCrashAt places the sweep's fault injection 30% into the
// trace: past the first burst, so every policy is measured recovering
// from a loaded steady state rather than a cold start.
func failureCrashAt(dur time.Duration) time.Duration {
	return time.Duration(0.3 * float64(dur))
}

// failurePlan builds one named fault plan against a fleet serving a
// trace of the given duration. The victim is replica 1 — an initial
// fleet member carrying a full share of the load.
func failurePlan(name string, dur time.Duration) (*workload.FaultPlan, error) {
	at := failureCrashAt(dur)
	switch name {
	case "none":
		return nil, nil
	case "crash-restart":
		return &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
			{Replica: 1, At: at, Restart: at + 60*time.Second},
		}}, nil
	case "crash-dead":
		return &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
			{Replica: 1, At: at},
		}}, nil
	case "degraded":
		return &workload.FaultPlan{Degrades: []workload.Degrade{
			{Replica: 1, Start: at, End: at + 2*time.Minute, Slowdown: 3},
		}}, nil
	}
	return nil, fmt.Errorf("unknown fault plan %q (want one of %v)", name, failurePlanNames)
}

// FailureRecovery is the fleet fault-injection scenario: the bursty
// SLO'd trace on a four-replica single-GPU Llama-70B fleet routed by
// live-least-loaded, swept over autoscaler policy x fault plan. The
// recovery-window attainment column isolates the interactive SLO hit
// inside [crash, crash+window): the black-hole detection delay, the
// retry storm, and — for the dynamic policies — how fast replacement
// capacity arrives. The "none" rows are each policy's no-fault
// baseline; Retries/Dropped/LostTok account for every request the
// faults dislodged.
func FailureRecovery(e Env, planNames []string, window time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	if len(planNames) == 0 {
		planNames = failurePlanNames
	}
	tr := autoscaleTrace(e)
	dur := tr.Requests[len(tr.Requests)-1].Arrival
	from := failureCrashAt(dur)
	tab := stats.NewTable("Policy", "Plan", "Int TTFT-SLO %", "Recovery TTFT-SLO %",
		"Retries", "Dropped", "LostTok", "Crashes", "Eject", "Readmit",
		"p99 TTFT ms", "Fleet mean/peak", "Rejected")
	type cell struct {
		policy string
		plan   string
		res    *serve.Result
	}
	var cells []cell
	for _, policy := range serve.AutoscalerNames {
		for _, plan := range planNames {
			cells = append(cells, cell{policy: policy, plan: plan})
		}
	}
	// With tracing requested (e.Obs set), exactly one sweep cell is
	// instrumented: the first crash-restart cell, whose trace tells the
	// full crash → ejection → retry → readmission story on the victim
	// replica's track. One observer must not span concurrent cells.
	traced := 0
	for i, c := range cells {
		if c.plan == "crash-restart" {
			traced = i
			break
		}
	}
	err = NewPool(e.Workers).Run(len(cells), func(i int) error {
		c := &cells[i]
		plan, err := failurePlan(c.plan, dur)
		if err != nil {
			return err
		}
		var o *obs.Observer
		if i == traced {
			o = e.Obs
		}
		res, err := runFailurePolicy(cm, tr, c.policy, plan, o)
		if err != nil {
			return err
		}
		c.res = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		res := c.res
		overall := attainment(res, "interactive")
		recov := res.WindowAttainment("interactive", from, from+window)
		ttft := classTTFT(res, "interactive")
		tab.AddRow(c.policy, c.plan,
			100*overall.TTFTRate(), 100*recov.TTFTRate(),
			res.Retries, res.RejectedCrashDropped, res.WorkLostTokens,
			res.ReplicaCrashes, res.Ejections, res.Readmissions,
			ttft.P99(), fmt.Sprintf("%.1f/%d", res.MeanFleet(), res.PeakFleet()),
			res.Rejected)
	}
	return tab, nil
}

// runFailurePolicy runs one sweep cell: four independent single-GPU
// replicas under the policy's autoscaler (bounded like the autoscaling
// sweep), with the fault plan injected and live-least-loaded routing so
// re-enqueued work lands on actual queue depth.
func runFailurePolicy(cm *perf.CostModel, tr *workload.Trace, policy string, plan *workload.FaultPlan, o *obs.Observer) (*serve.Result, error) {
	scaler, err := serve.NewAutoscaler(policy)
	if err != nil {
		return nil, err
	}
	cl := serve.DPCluster("fail-"+policy, serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
	cl.Router = serve.NewLiveLeastLoadedRouter()
	cl.Autoscale = &serve.AutoscaleConfig{
		Scaler:    scaler,
		Interval:  5 * time.Second,
		ColdStart: 15 * time.Second,
		Min:       autoscaleInitial,
		Max:       autoscaleMax,
	}
	cl.Faults = plan
	cl.Obs = o
	res, err := cl.Run(tr)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", policy, "faults", err)
	}
	return res, nil
}

// OutageSpillover is the geo outage scenario: the two-region antipodal
// geo workload with the home region dark for an outage window opening
// just before the midpoint burst, swept over every geo routing policy
// with and without the outage. During the window the only capacity is
// a 700 ms round trip away, so the outage rows measure what each
// policy salvages remotely — against its own no-outage baseline and
// the nearest-routing row that insists on serving locally.
func OutageSpillover(e Env, outage time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	topos := geoTopologies()
	topo := topos[len(topos)-1] // antipodal: the hardest spill-over case
	home, remote := topo.Regions[0], topo.Regions[1]
	tr := geoTrace(e, home, remote)
	dur := tr.Requests[len(tr.Requests)-1].Arrival
	// Open the outage just before the midpoint burst lands, so the dark
	// window covers the trace's worst minute.
	start := time.Duration(0.45 * float64(dur))
	plan := &workload.FaultPlan{Outages: []workload.RegionOutage{
		{Region: home, Start: start, End: start + outage},
	}}
	tab := stats.NewTable("Policy", "Outage", "Int TTFT-SLO %", "Outage TTFT-SLO %",
		"Spilled %", "Retries", "Dropped", "LostTok", "Eject", "Readmit",
		"p99 TTFT ms", "Rejected")
	type cell struct {
		policy string
		dark   bool
		res    *serve.Result
	}
	var cells []cell
	for _, policy := range serve.GeoRouterNames {
		cells = append(cells, cell{policy: policy}, cell{policy: policy, dark: true})
	}
	err = NewPool(e.Workers).Run(len(cells), func(i int) error {
		c := &cells[i]
		router, err := serve.NewGeoRouter(c.policy)
		if err != nil {
			return err
		}
		g := serve.Geo{
			Name:     "outage-" + c.policy,
			Topology: topo,
			Regions:  geoRegions(cm, topo, 15*time.Second),
			Router:   router,
		}
		if c.dark {
			g.Faults = plan
		}
		if c.dark && c.policy == "spill-over" {
			// The traced cell under -trace: the outage story (regional
			// crashes, refugee hops, readmission) on the policy built to
			// spill.
			g.Obs = e.Obs
		}
		res, err := g.Run(tr)
		if err != nil {
			return fmt.Errorf("%s/dark=%v: %w", c.policy, c.dark, err)
		}
		c.res = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		res := c.res
		overall := attainment(res, "interactive")
		during := res.WindowAttainment("interactive", start, start+outage)
		ttft := classTTFT(res, "interactive")
		total := len(res.PerRequest)
		spillPct := 0.0
		if total > 0 {
			spillPct = 100 * float64(res.Spilled()) / float64(total)
		}
		tab.AddRow(c.policy, fmt.Sprintf("%v", c.dark),
			100*overall.TTFTRate(), 100*during.TTFTRate(),
			spillPct, res.Retries, res.RejectedCrashDropped, res.WorkLostTokens,
			res.Ejections, res.Readmissions, ttft.P99(), res.Rejected)
	}
	return tab, nil
}
