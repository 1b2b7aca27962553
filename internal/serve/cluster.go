package serve

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// Cluster composes one or more engines. A single multi-GPU engine covers
// TP/SP/Shift deployments; several single-GPU (or smaller) engines with a
// router cover data parallelism.
type Cluster struct {
	Name    string
	Configs []Config
	// Obs, when set, collects the run's request lifecycle spans, its
	// controller-tick fleet samples and every engine's per-iteration
	// throughput records (see internal/obs); it is the only source of
	// a run's time series. nil keeps the run on the untraced fast path,
	// byte-identical to builds without the hook.
	Obs *obs.Observer
	// Lockstep makes all replicas step together, each iteration taking
	// the slowest replica's time — vLLM's data-parallel engine behaviour
	// (replicas synchronize every step; idle ranks wait), the paper's DP
	// baseline. Independent replicas (Lockstep=false, the default) model
	// a fleet of separate servers.
	Lockstep bool
	// Router places arriving requests on replicas. nil uses
	// least-outstanding-tokens, the historical default.
	Router Router
	// Autoscale, when set, grows and shrinks the replica fleet at run
	// time instead of serving the whole trace on the initial Configs;
	// see AutoscaleConfig.
	//
	// Autoscale, Faults, Breakers, SharedCache, and Cloud each require
	// Lockstep=false.
	Autoscale *AutoscaleConfig
	// Faults, when set, injects the plan's replica crashes, outages, and
	// degrade windows into the run: crashed work re-enqueues at the
	// router with a retry count, and the health tier governs ejection
	// and readmission (DefaultProbeInterval, DefaultFailThreshold,
	// DefaultHealthCooldown). A Cluster has no regions: a plan entry
	// naming one is an error.
	Faults *workload.FaultPlan
	// Breakers, when set, wraps every replica in a circuit breaker
	// (closed → open → half-open) fed by admission sheds, completions,
	// and crashes; breaker-aware routers steer traffic around open
	// replicas. Composes with — does not replace — the health tier.
	Breakers *BreakerConfig
	// SharedCache, when set, answers repeated prompts (requests sharing
	// a PromptKey) at the balancer after the configured latency, before
	// any engine sees them; see SharedCacheConfig.
	SharedCache *SharedCacheConfig
	// Cloud, when set, attaches the elastic pay-per-token backend (see
	// CloudConfig): cloud-aware routers can overflow to it, the
	// shed-or-buy admission policy offers doomed waiters to it, and the
	// Result carries the owned-vs-rented dollar ledger. nil keeps every
	// legacy path byte-identical.
	Cloud *CloudConfig
	// Deprecated: ignored; every run is serial.
	Parallelism int
}

// DPCluster returns n data-parallel replicas of the config (each replica
// keeps cfg.Par, usually a single GPU) as independent servers behind a
// balancer. Set Lockstep for vLLM's DP engine semantics.
func DPCluster(name string, cfg Config, n int) Cluster {
	configs := make([]Config, n)
	for i := range configs {
		c := cfg
		c.Name = fmt.Sprintf("%s-replica%d", name, i)
		configs[i] = c
	}
	return Cluster{Name: name, Configs: configs}
}

// SingleEngine returns a cluster with one engine.
func SingleEngine(name string, cfg Config) Cluster {
	cfg.Name = name
	return Cluster{Name: name, Configs: []Config{cfg}}
}

// Run replays the trace through the cluster on the serving controller,
// as a single region with no geo tier. Requests are routed at arrival
// time by c.Router (nil: least-outstanding-tokens) against live
// per-replica views; every built-in policy breaks score ties toward the
// lowest replica index, so repeated runs assign identically. With
// Lockstep=false each replica steps on its own clock between controller
// events, exactly like vLLM data-parallel servers behind a balancer;
// with Lockstep=true the fleet steps on one shared clock where every
// global iteration lasts as long as the slowest replica's step (vLLM DP
// engine semantics). Autoscale, Faults, Breakers, SharedCache, and Cloud
// each switch on their controller feature; without Autoscale the fleet
// runs under the static policy.
func (c Cluster) Run(t *workload.Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if c.Lockstep && (c.Autoscale != nil || c.Faults != nil || c.Breakers != nil ||
		c.SharedCache != nil || c.Cloud != nil) {
		// Even a one-replica lockstep cluster must error: scaling it up
		// would silently drop the DP lockstep semantics the caller asked
		// for (spawned replicas run on independent clocks).
		return nil, fmt.Errorf("serve: Autoscale, Faults, Breakers, SharedCache, and Cloud require independent replicas (Lockstep=false)")
	}
	ctl, err := newController(Geo{
		Name:    c.Name,
		Regions: []Region{{Name: c.Name, Configs: c.Configs, Router: c.Router, Autoscale: c.Autoscale}},
		Faults:  c.Faults, Breakers: c.Breakers,
		SharedCache: c.SharedCache, Cloud: c.Cloud,
		Obs: c.Obs,
	}, false)
	if err != nil {
		return nil, err
	}
	// A lockstep fleet steps on its shared clock at every advance.
	f := ctl.regions[0]
	f.lockstep, f.eager = c.Lockstep, f.eager || c.Lockstep
	return ctl.run(t)
}

// Single is the deployment MinLatency measures: the cluster's first
// engine on its own.
func (c Cluster) Single() Cluster { return SingleEngine(c.Name+"-single", c.Configs[0]) }

// MinLatency measures the lone-request latency of the cluster's first
// engine: TTFT and TPOT with no queueing (Section 4.3.1's sequential
// processing).
func (c Cluster) MinLatency(inTok, outTok int) (ttft, tpot time.Duration, err error) {
	res, err := c.Single().Run(workload.Single(inTok, outTok))
	if err != nil {
		return 0, 0, err
	}
	return res.LoneLatency()
}

// StandardClusters builds the four deployments the paper compares on one
// node: DP (per-GPU replicas), TP (one engine, full TP), SP (one engine,
// full or combined SP), and Shift Parallelism over the SP base config.
func StandardClusters(cm *perf.CostModel, basePar perf.Parallelism, numGPUs int) (map[string]Cluster, error) {
	if basePar.World() != numGPUs {
		return nil, fmt.Errorf("serve: base parallelism %s does not span %d GPUs", basePar, numGPUs)
	}
	// DP replicas must each fit the model on one GPU; callers handle the
	// (rare) case where they cannot.
	dpCfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	tpCfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: numGPUs}}
	spCfg := Config{CM: cm, Par: basePar}
	shiftCfg := Config{CM: cm, Par: basePar, Strategy: StrategyShift}
	dp := DPCluster("DP", dpCfg, numGPUs)
	dp.Lockstep = true
	return map[string]Cluster{
		"DP":    dp,
		"TP":    SingleEngine("TP", tpCfg),
		"SP":    SingleEngine("SP", spCfg),
		"Shift": SingleEngine("Shift", shiftCfg),
	}, nil
}
