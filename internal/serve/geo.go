package serve

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the multi-region geo serving tier: a second routing layer
// over per-region autoscaled fleets. A Geo deployment owns a Topology
// (validated inter-region RTT matrix) and one Region per topology entry;
// each arriving request is first placed on a region by a GeoRouter, then
// on a replica by that region's local Router, and finally pays the
// origin→region round trip on top of its TTFT and completion when it was
// served remotely. Geo and Cluster run on the same serving controller
// (controller.go), so a one-region Geo under the
// nearest router reproduces the equivalent Cluster.Run bit-for-bit
// (regression-tested).

// Topology is the named-region set and its inter-region RTT matrix.
// RTT[i][j] is the full round trip a request arriving in region i pays
// when served by region j; the matrix must be square, symmetric, zero on
// the diagonal, and non-negative.
type Topology struct {
	Regions []string
	RTT     [][]time.Duration
}

// SingleRegion returns the one-region topology (no remote option): the
// geo tier degenerates to a Cluster run.
func SingleRegion(name string) Topology {
	return Topology{Regions: []string{name}, RTT: [][]time.Duration{{0}}}
}

// UniformTopology returns a topology where every distinct pair of
// regions is rtt apart — the symmetric two- or three-datacenter case.
func UniformTopology(rtt time.Duration, names ...string) Topology {
	m := make([][]time.Duration, len(names))
	for i := range m {
		m[i] = make([]time.Duration, len(names))
		for j := range m[i] {
			if i != j {
				m[i][j] = rtt
			}
		}
	}
	return Topology{Regions: names, RTT: m}
}

// Validate checks the matrix invariants.
func (t Topology) Validate() error {
	if len(t.Regions) == 0 {
		return fmt.Errorf("serve: Topology.Regions is empty")
	}
	seen := map[string]bool{}
	for i, name := range t.Regions {
		if name == "" {
			return fmt.Errorf("serve: Topology.Regions[%d] is unnamed", i)
		}
		if seen[name] {
			return fmt.Errorf("serve: Topology.Regions[%d] %q is a duplicate", i, name)
		}
		seen[name] = true
	}
	if len(t.RTT) != len(t.Regions) {
		return fmt.Errorf("serve: Topology.RTT has %d rows for %d regions", len(t.RTT), len(t.Regions))
	}
	for i, row := range t.RTT {
		if len(row) != len(t.Regions) {
			return fmt.Errorf("serve: Topology.RTT[%d] has %d entries for %d regions", i, len(row), len(t.Regions))
		}
		for j, d := range row {
			switch {
			case d < 0:
				return fmt.Errorf("serve: Topology.RTT[%d][%d] %v (%s to %s) is negative", i, j, d, t.Regions[i], t.Regions[j])
			case i == j && d != 0:
				return fmt.Errorf("serve: Topology.RTT[%d][%d] %v is a non-zero self-RTT of %s", i, j, d, t.Regions[i])
			case d != t.RTT[j][i]:
				return fmt.Errorf("serve: Topology.RTT[%d][%d] %v differs from RTT[%d][%d] %v (%s and %s)",
					i, j, d, j, i, t.RTT[j][i], t.Regions[i], t.Regions[j])
			}
		}
	}
	return nil
}

// Index returns the position of a region name, -1 if absent.
func (t Topology) Index(name string) int {
	for i, n := range t.Regions {
		if n == name {
			return i
		}
	}
	return -1
}

// Region is one geographic serving site: a named fleet with its own
// local replica router and (optionally) its own autoscaler and capacity
// bounds. A nil Autoscale pins the fleet at its initial size (the static
// policy), so fixed-capacity regions and autoscaled ones mix freely in
// one topology.
type Region struct {
	// Name must match the topology entry at the same index (or be empty
	// to adopt it).
	Name string
	// Configs is the initial fleet; replicas run independently (the geo
	// tier has no lockstep mode).
	Configs []Config
	// Router places requests on replicas inside the region; nil uses
	// least-outstanding-tokens, the cluster default.
	Router Router
	// Autoscale optionally lets the region's fleet grow and shrink on
	// local signals; nil means a fixed fleet. Regions must not share one
	// stateful Autoscaler or Router instance.
	Autoscale *AutoscaleConfig
}

// RegionView is what a GeoRouter sees about one region when placing a
// request: live fleet composition and backlog (observable the way it is
// at a real global load balancer), plus the round trip from the
// request's origin.
type RegionView struct {
	// RTT is the round trip from the request's origin region to this
	// one; zero for the origin itself.
	RTT time.Duration
	// Active counts the region's active replicas at the routing
	// instant, health-ejected ones excluded.
	Active int
	// QueuedRequests counts routed-but-not-running requests across the
	// region's live replicas; BacklogTokens the input+output tokens of
	// every routed request not yet finished, queued or in flight (the
	// engines' backlogs). Both include draining replicas (real work the
	// region must still finish) and skip health-ejected ones.
	QueuedRequests int
	BacklogTokens  int
	// NextReadyIn is the time until the next warming replica activates;
	// negative when none is warming.
	NextReadyIn time.Duration
	// ColdStart is the region's configured spawn-to-ready penalty — what
	// waiting for local scale-up costs.
	ColdStart time.Duration
	// MeasuredRate is the region's observed serving throughput in tokens
	// per second per active replica, measured over the run so far: the
	// completed input+output tokens of every replica it ever ran, over
	// its integrated active-replica time (zero until the first
	// completions land).
	MeasuredRate float64
	// Down marks a region with zero routable replicas (an outage the
	// health tier has fully ejected, before any recovery): geo routers
	// must not place work on it. Always false without fault injection.
	Down bool
	// BreakerOpen marks a region whose circuit breaker is open: alive
	// but shedding or crashing. Breaker-aware geo routers (spill-over)
	// prefer other regions and fall back to open ones only when every
	// candidate is open. Always false when breakers are disabled.
	BreakerOpen bool
}

// GeoRouter places each arriving request on a region. Route is called in
// arrival order and must be deterministic (ties break toward the
// request's origin, then the lowest region index), mirroring the Router
// contract one tier down.
type GeoRouter interface {
	Name() string
	// Route returns the index of the serving region. origin is the index
	// of the request's origin region (regions[origin].RTT == 0).
	// Returning an out-of-range index is a run error. The regions slice
	// is reused across calls, so a router must not keep it.
	Route(r workload.Request, origin int, regions []RegionView) int
}

// --- Nearest region ---

type nearestRegion struct{}

// NewNearestRegionRouter always serves in the lowest-RTT region — the
// origin itself whenever it appears in the topology. This is the
// locality baseline: zero WAN tax, but bursts and cold starts must be
// absorbed entirely by the local fleet.
func NewNearestRegionRouter() GeoRouter { return nearestRegion{} }

func (nearestRegion) Name() string { return "nearest" }

func (nearestRegion) Route(_ workload.Request, origin int, regions []RegionView) int {
	best := -1
	if !regions[origin].Down {
		best = origin
	}
	for i := range regions {
		if regions[i].Down || i == best {
			continue
		}
		if best < 0 || regions[i].RTT < regions[best].RTT {
			best = i
		}
	}
	if best < 0 {
		return origin // everything dark: the caller parks the request
	}
	return best
}

// --- Least loaded global ---

type leastLoadedGlobal struct{}

// NewLeastLoadedGlobalRouter picks the region with the least live work
// (backlog tokens) per active replica, ignoring RTT entirely —
// the global-balancer baseline. Ties break toward the origin, then the
// lowest index. It wastes round trips when every region is quiet and
// pays them back only under load imbalance.
func NewLeastLoadedGlobalRouter() GeoRouter { return leastLoadedGlobal{} }

func (leastLoadedGlobal) Name() string { return "least-loaded-global" }

func (leastLoadedGlobal) Route(_ workload.Request, origin int, regions []RegionView) int {
	score := func(v RegionView) float64 {
		active := v.Active
		if active < 1 {
			active = 1
		}
		return float64(v.BacklogTokens) / float64(active)
	}
	// Ascending scan with a strict improvement test: ties stay with the
	// origin, then with the lowest already-chosen index. Dark regions
	// never win.
	best := -1
	if !regions[origin].Down {
		best = origin
	}
	for i := range regions {
		if regions[i].Down || i == origin {
			continue
		}
		if best < 0 || score(regions[i]) < score(regions[best]) {
			best = i
		}
	}
	if best < 0 {
		return origin
	}
	return best
}

// --- SLO-aware spill-over ---

// spillOverRouter serves locally unless the projected local wait — queue
// drain time plus, when the local queue has crossed the scale-up
// threshold, the cold start any local relief must pay — exceeds the
// round trip plus projected wait of a remote region. This is the
// RTT-vs-cold-start break-even the ROADMAP calls out: during a burst a
// warm remote fleet an RTT away beats local capacity that is still 60
// seconds from its first token.
type spillOverRouter struct{}

// spillQueueHigh is the local queued-requests-per-active-replica level
// at or above which local relief is assumed to need a cold start: the
// queue-depth autoscaler's default scale-up threshold.
const spillQueueHigh = 4

// NewSpillOverRouter returns the spill-over policy. Its projected waits
// use max(measured rate, priorRate) per active replica.
func NewSpillOverRouter() GeoRouter { return spillOverRouter{} }

func (spillOverRouter) Name() string { return "spill-over" }

// wait projects how long a new arrival waits in the region: backlog
// tokens — queued plus in-flight, since continuous batching admits a
// burst into running long before queues form — over the service-rate
// estimate times the active fleet.
func (spillOverRouter) wait(v RegionView) float64 {
	rate := v.MeasuredRate
	if rate < priorRate {
		rate = priorRate
	}
	active := v.Active
	if active < 1 {
		active = 1
	}
	return float64(v.BacklogTokens) / (rate * float64(active))
}

// Route implements GeoRouter. The first pass skips regions whose
// breaker is open (a drowning region should not receive spill); when
// every candidate is open the request has to land somewhere, so a
// second pass ignores breakers (still never Down regions). With
// breakers disabled every view has BreakerOpen false and the first
// pass is the legacy scan exactly.
func (s spillOverRouter) Route(_ workload.Request, origin int, regions []RegionView) int {
	if i, _ := s.pick(origin, regions, false); i >= 0 {
		return i
	}
	if i, _ := s.pick(origin, regions, true); i >= 0 {
		return i
	}
	return origin
}

// RouteCloud implements CloudAwareGeoRouter, extending the spill-over
// break-even with the third option: when even the best region's
// projected cost (local wait plus cold-start penalty, or RTT plus
// remote wait) exceeds the cloud's projected first-token latency — and
// budget remains — the request is bought instead of spilled.
func (s spillOverRouter) RouteCloud(_ workload.Request, origin int, regions []RegionView, cloud CloudView) bool {
	if cloud.BudgetExhausted {
		return false
	}
	best, cost := s.pick(origin, regions, false)
	if best < 0 {
		best, cost = s.pick(origin, regions, true)
	}
	if best < 0 {
		// Every region dark or open: the cloud is the escape hatch.
		return true
	}
	return cost > cloud.Latency().Seconds()
}

// pick returns the cheapest candidate region and its projected cost in
// seconds (-1 when no candidate is routable).
func (s spillOverRouter) pick(origin int, regions []RegionView, ignoreBreakers bool) (int, float64) {
	local := regions[origin]
	localCost := s.wait(local)
	active := local.Active
	if active < 1 {
		active = 1
	}
	if float64(local.QueuedRequests)/float64(active) >= spillQueueHigh {
		// The local queue is in scale-up territory: relief costs a cold
		// start — or the remainder of one already under way.
		pen := local.ColdStart
		if local.NextReadyIn >= 0 && local.NextReadyIn < pen {
			pen = local.NextReadyIn
		}
		localCost += pen.Seconds()
	}
	best, bestCost := -1, 0.0
	if !local.Down && (ignoreBreakers || !local.BreakerOpen) {
		best, bestCost = origin, localCost
	}
	for i := range regions {
		if i == origin || regions[i].Down || (!ignoreBreakers && regions[i].BreakerOpen) {
			continue
		}
		if c := regions[i].RTT.Seconds() + s.wait(regions[i]); best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, bestCost
}

var builtinGeoRouters = registry[GeoRouter]{
	{"nearest", NewNearestRegionRouter},
	{"least-loaded-global", NewLeastLoadedGlobalRouter},
	{"spill-over", NewSpillOverRouter},
}

// GeoRouterNames lists the built-in geo policies in presentation order.
var GeoRouterNames = builtinGeoRouters.names()

// NewGeoRouter returns a fresh instance of a built-in geo policy by name.
func NewGeoRouter(name string) (GeoRouter, error) {
	return builtinGeoRouters.lookup("geo router", name)
}

// Geo composes per-region fleets under a topology and a geo routing
// policy — the multi-region serving tier.
type Geo struct {
	Name     string
	Topology Topology
	// Regions must align with Topology.Regions (same order, same names;
	// empty Region.Name adopts the topology's).
	Regions []Region
	// Router picks the serving region per request; nil uses nearest.
	Router GeoRouter
	// Faults, when set, injects the plan's crashes, outages, and degrade
	// windows into the run. Plan entries name their target region; an
	// empty region scopes to the first (home) region of the topology.
	// Crash-lost work re-enqueues at the geo router with a retry count
	// and may land in another region (paying that RTT); during a full
	// multi-region outage requests park at the geo balancer until any
	// region recovers. The plan also turns on every region's health
	// tier (see Cluster.Faults).
	Faults *workload.FaultPlan
	// Breakers, when set, wraps every replica AND every region in a
	// circuit breaker: replica breakers steer each region's local
	// router, region breakers steer breaker-aware geo routers
	// (spill-over) around a shedding or crashing region. Composes with
	// the health tier; nil keeps the legacy routing path byte-for-byte.
	Breakers *BreakerConfig
	// SharedCache, when set, answers repeated prompts (requests sharing
	// a PromptKey) at the geo balancer after the configured latency,
	// before region placement; hits are billed to the request's origin
	// region with no RTT. See SharedCacheConfig.
	SharedCache *SharedCacheConfig
	// Cloud, when set, attaches one elastic pay-per-token backend shared
	// by every region (see CloudConfig): cloud-aware geo routers
	// (spill-over) can buy overflow instead of spilling, cloud-aware
	// replica routers can overflow from inside a region, the shed-or-buy
	// admission policy offers doomed waiters to it, and cloud-served
	// requests bill to their origin region with no RTT. Refused or
	// transiently failed dispatches fall back to regional placement. nil
	// keeps every legacy path byte-identical.
	Cloud *CloudConfig
	// Obs, when set, collects the run's request lifecycle spans, the
	// per-region controller-tick fleet samples and every engine's
	// per-iteration throughput records (see internal/obs); it is the
	// only source of a run's time series. Tracks: one process per
	// region (replicas plus the regional balancer) and a "geo" process
	// holding the geo balancer's routing, refugee-hop, and drop events.
	// nil keeps the run on the untraced fast path.
	Obs *obs.Observer
	// Deprecated: ignored; every run is serial.
	Parallelism int
}

// syncRegionBreaker feeds the region's terminal outcomes since the last
// sync into the region breaker, replica by replica through each one's
// regionSeen read point, and trips it once per replica crash since.
// Serial controller path only.
func (f *fleetState) syncRegionBreaker(now time.Duration) {
	b := f.regionBreaker
	if b == nil {
		return
	}
	for _, rep := range f.replicas {
		done, rej := rep.regionSeen.since(rep.engine)
		b.feed(done, rej, now, f.bal, f.name, f.name)
	}
	for ; f.regionCrashSeen < f.crashCount; f.regionCrashSeen++ {
		if b.trip(now) {
			f.bal.Event(now, obs.EvBreakerOpen, obs.NoRequest, f.name)
		}
	}
}

// accrue extends the active-replica-seconds integral to now, using the
// composition at the start of the window (promotions and retirements
// land on controller events, so the approximation error is at most one
// event interval per transition). A fleet that is not eager accrues only
// when it steps; the integral's one reader, the geo tier's region view,
// makes every fleet eager.
func (f *fleetState) accrue(now time.Duration) {
	if now <= f.lastAccrual {
		return
	}
	active := 0
	for _, rep := range f.replicas {
		if rep.state == replicaActive {
			active++
		}
	}
	f.activeSeconds += float64(active) * (now - f.lastAccrual).Seconds()
	f.lastAccrual = now
}

// regionView snapshots the region for the geo router at the routing
// instant, after feeding the region breaker; the caller fills in RTT.
func (f *fleetState) regionView(now time.Duration) RegionView {
	f.syncRegionBreaker(now)
	f.promote(now)
	v := RegionView{ColdStart: f.ac.ColdStart, NextReadyIn: -1}
	served := 0
	for _, rep := range f.replicas {
		served += rep.engine.completedTokens
		switch rep.state {
		case replicaActive:
			if rep.ejected {
				// Health-ejected: out of the routing set and already
				// drained — the geo balancer knows, so it is not capacity.
				// (A down-but-not-ejected replica still counts: the
				// detection delay means the balancer can't tell yet.)
				continue
			}
			v.Active++
		case replicaWarming:
			if in := rep.readyAt - now; v.NextReadyIn < 0 || in < v.NextReadyIn {
				v.NextReadyIn = in
			}
		case replicaRetired:
			continue
		}
		e := rep.engine
		v.QueuedRequests += e.waiting.len() + len(e.arrivals) - e.nextIdx
		v.BacklogTokens += e.backlogTokens
	}
	if f.activeSeconds > 0 {
		v.MeasuredRate = float64(served) / f.activeSeconds
	}
	v.Down = f.routableCount() == 0
	v.BreakerOpen = !f.regionBreaker.allowOn(now, f.bal, f.name)
	return v
}

// Run replays the trace through the geo tier. Each request is placed on
// a region by the geo router (seeing live per-region fleet and backlog
// state plus the origin's RTT row), then on a replica by that region's
// local router under exactly the autoscaled-cluster semantics of
// Cluster.Run — per-region fleets grow and shrink on their own local
// signals and evaluation clocks. Remotely served requests pay the full
// origin→region RTT on top of their TTFT and completion (inter-token
// streaming pipelines over the WAN, so TPOT is untouched); attainment
// and the Result samples are computed from the inflated values. A
// one-region Geo reproduces the equivalent Cluster.Run bit-for-bit.
func (g Geo) Run(t *workload.Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	c, err := newController(g, true)
	if err != nil {
		return nil, err
	}
	return c.run(t)
}

func originOfName(t Topology, name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	if i := t.Index(name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("serve: request origin %q not in topology %v", name, t.Regions)
}
