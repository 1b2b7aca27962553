package serve

import (
	"fmt"
	"time"

	"repro/internal/conc"
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
	// RecordEvents enables per-iteration event capture (time series).
	//
	// Deprecated: this predates the obs layer and survives as a thin
	// compatibility shim over the engine tap (Result.Events is
	// unchanged). New consumers should set Obs and use its samples.
	RecordEvents bool
	// Obs, when set, collects request lifecycle spans and controller
	// time series for the run (see internal/obs). nil keeps the run on
	// the untraced fast path, byte-identical to builds without the
	// hook.
	Obs *obs.Observer
	// Lockstep makes all replicas step together, each iteration taking
	// the slowest replica's time — vLLM's data-parallel engine behaviour
	// (replicas synchronize every step; idle ranks wait), the paper's DP
	// baseline. Independent replicas (Lockstep=false, the default) model
	// a fleet of separate servers. Only the plain path supports it.
	Lockstep bool
	// Router places arriving requests on replicas. nil uses
	// least-outstanding-tokens, the historical default.
	Router Router
	// Autoscale, when set, grows and shrinks the replica fleet at run
	// time instead of serving the whole trace on the initial Configs;
	// see AutoscaleConfig.
	//
	// Autoscale, Faults, Health, Breakers, SharedCache, and Cloud each
	// move the run onto the serving controller (under the static policy
	// when Autoscale is nil) and require Lockstep=false.
	Autoscale *AutoscaleConfig
	// Faults, when set, injects the plan's replica crashes, outages, and
	// degrade windows into the run: crashed work re-enqueues at the
	// router with a retry count, and the health tier (Health, or its
	// defaults) governs ejection and readmission. A Cluster has no
	// regions: a plan entry naming one is an error.
	Faults *workload.FaultPlan
	// Health, when set, enables the router's health-check tier even
	// without a fault plan; see HealthConfig.
	Health *HealthConfig
	// Breakers, when set, wraps every replica in a circuit breaker
	// (closed → open → half-open) fed by admission sheds, completions,
	// and crashes; breaker-aware routers steer traffic around open
	// replicas. Composes with — does not replace — the Health tier.
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
	// Parallelism bounds the worker pool that steps independent
	// (non-lockstep) replicas concurrently: 0 uses GOMAXPROCS, 1 forces
	// the serial path. Every setting produces byte-identical Results —
	// replicas share nothing after arrival-time routing and results are
	// gathered in replica-index order (pinned by the determinism tests
	// under -race). Lockstep clusters always step serially: their
	// replicas synchronize every iteration.
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

// Run replays the trace through the cluster. A featureless fleet takes
// the plain path: requests are routed at arrival time by c.Router (nil:
// least-outstanding-tokens), then each engine drains its share in one
// Engine.Run — the engines share nothing, exactly like vLLM
// data-parallel deployments behind a balancer. Routing is
// deterministic: every built-in policy breaks score ties toward the
// lowest replica index, so repeated runs assign identically. Routing is
// orthogonal to Lockstep: with Lockstep=false each replica drains its
// share on its own clock; with Lockstep=true the already-routed shares
// are replayed on a shared clock where every global iteration lasts as
// long as the slowest replica's step (vLLM DP engine semantics) — the
// assignment itself is byte-identical in both modes.
//
// Setting any of Autoscale, Faults, Health, Breakers, SharedCache, or
// Cloud runs the cluster on the serving controller instead, as a single
// region with no geo tier; the static policy reproduces the plain path
// bit-for-bit.
func (c Cluster) Run(t *workload.Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if c.Autoscale != nil || c.Faults != nil || c.Health != nil || c.Breakers != nil ||
		c.SharedCache != nil || c.Cloud != nil {
		if c.Lockstep {
			// Even a one-replica lockstep cluster must error: scaling it up
			// would silently drop the DP lockstep semantics the caller asked
			// for (spawned replicas run on independent clocks).
			return nil, fmt.Errorf("serve: Autoscale, Faults, Health, Breakers, SharedCache, and Cloud require independent replicas (Lockstep=false)")
		}
		ctl, err := newController(Geo{
			Name:     c.Name,
			Topology: SingleRegion(c.Name),
			Regions:  []Region{{Configs: c.Configs, Router: c.Router, Autoscale: c.Autoscale}},
			Faults:   c.Faults, Health: c.Health, Breakers: c.Breakers,
			SharedCache: c.SharedCache, Cloud: c.Cloud,
			RecordEvents: c.RecordEvents, Obs: c.Obs, Parallelism: c.Parallelism,
		}, false)
		if err != nil {
			return nil, err
		}
		return ctl.run(t)
	}
	// Track registration order: balancer first, then replicas in index
	// order (all serial, so exports are worker-count independent).
	bal := c.Obs.Stream("", "balancer")
	engines := make([]*Engine, len(c.Configs))
	for i, cfg := range c.Configs {
		e, err := NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		e.setRecordIters(c.RecordEvents)
		e.attachStream(c.Obs.Stream("", cfg.Name))
		engines[i] = e
	}
	assigned, err := routeTrace(c.Router, t, c.Configs, engines, bal)
	if err != nil {
		return nil, err
	}

	var metrics []RequestMetrics
	if c.Lockstep && len(engines) > 1 {
		metrics = runLockstep(engines, assigned)
	} else {
		// Independent replicas share nothing after routing: drain each
		// share on the worker pool and gather in replica-index order, so
		// the output is byte-identical to the serial path.
		shares := make([][]RequestMetrics, len(engines))
		conc.For(len(engines), conc.Workers(c.Parallelism), func(i int) {
			shares[i] = engines[i].Run(assigned[i])
		})
		for _, share := range shares {
			metrics = append(metrics, share...)
		}
	}
	return buildResult(c.Name, metrics, engines), nil
}

// routeTrace assigns every request of the trace to exactly one replica
// (conservation: the shares partition the trace), updating the router's
// view of outstanding work after each placement.
func routeTrace(router Router, t *workload.Trace, cfgs []Config, engines []*Engine, bal *obs.Stream) ([][]workload.Request, error) {
	if router == nil {
		router = NewLeastOutstandingRouter()
	}
	if r, ok := router.(resettable); ok {
		r.reset()
	}
	views := make([]ReplicaView, len(engines))
	for i, e := range engines {
		views[i] = ReplicaView{
			Index:            i,
			Name:             cfgs[i].Name,
			KVCapacityTokens: e.KVCapacityTokens(),
			FreeKVTokens:     e.KVCapacityTokens(),
		}
	}
	assigned := make([][]workload.Request, len(engines))
	for _, r := range t.Requests {
		i := router.Route(r, views)
		if i < 0 || i >= len(engines) {
			return nil, fmt.Errorf("serve: router %s returned replica %d of %d", router.Name(), i, len(engines))
		}
		bal.Event(r.Arrival, obs.EvRoute, r.ID, cfgs[i].Name)
		assigned[i] = append(assigned[i], r)
		views[i].OutstandingTokens += r.TotalTokens()
		views[i].OutstandingRequests++
		views[i].FreeKVTokens -= r.TotalTokens()
	}
	return assigned, nil
}

// runLockstep steps all engines on a shared clock: each global iteration
// lasts as long as the slowest replica's step (vLLM DP semantics).
func runLockstep(engines []*Engine, assigned [][]workload.Request) []RequestMetrics {
	now := time.Duration(0)
	for i, e := range engines {
		e.arrivals = assigned[i]
	}
	for {
		allDone := true
		for _, e := range engines {
			if !e.finished() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}

		type staged struct {
			e    *Engine
			plan batchPlan
			cost perf.Cost
		}
		var work []staged
		var maxDur time.Duration
		for _, e := range engines {
			if e.finished() {
				continue
			}
			e.now = now
			e.admit()
			plan := e.schedule()
			if plan.empty() {
				// Try to resolve memory-stuck states before giving up on
				// this replica for the step.
				for e.resolveEmpty() {
					plan = e.schedule()
					if !plan.empty() {
						break
					}
				}
			}
			if plan.empty() {
				continue
			}
			cost := e.price(&plan)
			if d := cost.Total(); d > maxDur {
				maxDur = d
			}
			work = append(work, staged{e, plan, cost})
		}

		if len(work) == 0 {
			// Whole cluster idle: jump to the earliest next arrival.
			next := time.Duration(-1)
			for _, e := range engines {
				if a := e.nextArrival(); a >= 0 && (next < 0 || a < next) {
					next = a
				}
			}
			if next < 0 {
				break // nothing left anywhere
			}
			now = next
			continue
		}

		now += maxDur
		for _, w := range work {
			w.e.apply(w.plan, w.cost, now)
		}
	}
	var metrics []RequestMetrics
	for i, e := range engines {
		metrics = append(metrics, e.metrics(assigned[i])...)
	}
	return metrics
}

// MinLatency measures the lone-request latency of the cluster's first
// engine: TTFT and TPOT with no queueing (Section 4.3.1's sequential
// processing).
func (c Cluster) MinLatency(inTok, outTok int) (ttft, tpot time.Duration, err error) {
	res, err := SingleEngine(c.Name+"-single", c.Configs[0]).Run(workload.Single(inTok, outTok))
	if err != nil {
		return 0, 0, err
	}
	if res.TTFT.N() == 0 {
		return 0, 0, fmt.Errorf("serve: single request was rejected")
	}
	ttft = time.Duration(res.TTFT.Mean() * float64(time.Millisecond))
	tpot = time.Duration(res.TPOT.Mean() * float64(time.Millisecond))
	return ttft, tpot, nil
}

// PeakThroughput saturates the cluster with a closed batch of identical
// requests and returns combined tokens/second (Section 4.3.1's
// peak-throughput methodology).
func (c Cluster) PeakThroughput(nRequests, inTok, outTok int) (float64, error) {
	res, err := c.Run(workload.Closed("closed", nRequests, inTok, outTok))
	if err != nil {
		return 0, err
	}
	if res.Rejected == len(res.PerRequest) {
		return 0, fmt.Errorf("serve: all requests rejected")
	}
	return res.Throughput(), nil
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
