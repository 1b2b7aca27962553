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
	type axis struct{ policy, plan string }
	var axes []axis
	var cells []cell
	for _, policy := range serve.AutoscalerNames {
		for _, plan := range planNames {
			cl, err := failureCluster(cm, policy, plan, dur)
			if err != nil {
				return nil, err
			}
			axes = append(axes, axis{policy, plan})
			// Under -trace, the first crash-restart cell tells the full
			// crash → ejection → retry → readmission story on the victim
			// replica's track.
			cells = append(cells, cell{name: policy + "/" + plan, sys: cl, trace: tr,
				traced: plan == "crash-restart"})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	for i, a := range axes {
		res := results[i]
		overall := attainment(res, "interactive")
		recov := res.WindowAttainment("interactive", from, from+window)
		ttft := classTTFT(res, "interactive")
		tab.AddRow(a.policy, a.plan,
			100*overall.TTFTRate(), 100*recov.TTFTRate(),
			res.Retries, res.RejectedCrashDropped, res.WorkLostTokens,
			res.ReplicaCrashes, res.Ejections, res.Readmissions,
			ttft.P99(), fmt.Sprintf("%.1f/%d", res.MeanFleet(), res.PeakFleet()),
			res.Rejected)
	}
	return tab, nil
}

// failureCluster builds one sweep cell's deployment: four independent
// single-GPU replicas under the policy's autoscaler (bounded like the
// autoscaling sweep), with the named fault plan injected and
// live-least-loaded routing so re-enqueued work lands on actual queue
// depth.
func failureCluster(cm *perf.CostModel, policy, plan string, dur time.Duration) (serve.Cluster, error) {
	faults, err := failurePlan(plan, dur)
	if err != nil {
		return serve.Cluster{}, err
	}
	scaler, err := serve.NewAutoscaler(policy)
	if err != nil {
		return serve.Cluster{}, err
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
	cl.Faults = faults
	return cl, nil
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
	var cells []cell
	for _, policy := range serve.GeoRouterNames {
		for _, dark := range []bool{false, true} {
			g, err := geoDeployment(cm, topo, policy, 15*time.Second)
			if err != nil {
				return nil, err
			}
			g.Name = "outage-" + policy
			if dark {
				g.Faults = plan
			}
			// Under -trace, the dark spill-over cell tells the outage story
			// (regional crashes, refugee hops, readmission) on the policy
			// built to spill.
			cells = append(cells, cell{name: fmt.Sprintf("%s/dark=%v", policy, dark), sys: g, trace: tr,
				traced: dark && policy == "spill-over"})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		policy, dark := serve.GeoRouterNames[i/2], i%2 == 1
		overall := attainment(res, "interactive")
		during := res.WindowAttainment("interactive", start, start+outage)
		ttft := classTTFT(res, "interactive")
		tab.AddRow(policy, fmt.Sprintf("%v", dark),
			100*overall.TTFTRate(), 100*during.TTFTRate(),
			spilledPct(res), res.Retries, res.RejectedCrashDropped, res.WorkLostTokens,
			res.Ejections, res.Readmissions, ttft.P99(), res.Rejected)
	}
	return tab, nil
}
