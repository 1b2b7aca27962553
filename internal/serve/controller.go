package serve

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the serving controller: the one event loop behind every
// run, whether or not it autoscales, injects faults, probes health, trips
// breakers, answers from the shared cache, or rents cloud capacity.
// Geo.Run drives it over one fleet per region under the geo tier (geo
// router, region breakers, the geo-balancer track, RTT annotation).
// Cluster.Run drives it over a single region with no geo tier at all, so
// a Cluster's results, track layout, and trace bytes are those of one
// fleet and its balancer. Each nil-gated feature is wired here once.

// regionCrash is one scheduled fault bound to its target region.
type regionCrash struct {
	ev     crashEvent
	region int
}

// parkedReq is a request waiting at the balancer because nothing was
// routable when it arrived (a full outage). It counts in its origin
// region's FleetView.QueuedRequests until a flush places it or a reap
// drops it.
type parkedReq struct {
	req    workload.Request
	origin int
}

// controller is one run's state: the regional fleets, the tiers that sit
// in front of them, and the fault machinery.
type controller struct {
	name string
	topo Topology
	// geo is the geo router; nil runs a single region with no geo tier.
	geo     GeoRouter
	regions []*fleetState
	// views is place's reusable scratch: the regions' geo views.
	views  []RegionView
	shared *sharedTier
	cloud  *cloudTier
	// bal receives the controller's own events (shared-cache hits,
	// retries, drops, and geo routes): the geo balancer's track, or the
	// lone region's balancer when there is no geo tier.
	bal *obs.Stream

	// Fault/health machinery (inert unless faultsOn): the cross-region
	// crash schedule, the shared probe clock, the retry discipline, the
	// parking queue, and the drop records.
	faultsOn   bool
	maxRetries int
	retry      *retrier // nil: immediate retries
	crashes    []regionCrash
	nextCrash  int
	nextProbe  time.Duration
	pending    []parkedReq
	dropped    []RequestMetrics
}

// newController validates a deployment and builds its run state. With
// geoTier false the single region serves alone under its own Name (no
// Topology): the fault plan may not name regions, and every controller
// event lands on the region's balancer track.
func newController(g Geo, geoTier bool) (*controller, error) {
	if geoTier {
		if err := g.Topology.Validate(); err != nil {
			return nil, err
		}
		if len(g.Regions) != len(g.Topology.Regions) {
			return nil, fmt.Errorf("serve: Geo.Regions has %d regions for a %d-region Topology",
				len(g.Regions), len(g.Topology.Regions))
		}
	}
	if err := g.Breakers.validate(); err != nil {
		return nil, err
	}
	if err := g.SharedCache.validate(); err != nil {
		return nil, err
	}
	if err := g.Cloud.validate(); err != nil {
		return nil, err
	}
	c := &controller{
		name: g.Name, topo: g.Topology,
		shared: newSharedTier(g.SharedCache), cloud: newCloudTier(g.Cloud),
	}
	// Track registration order: the geo balancer and the cloud tier
	// first, then each region's balancer and replicas in topology order.
	// Without a geo tier the cloud registers after the lone balancer.
	if geoTier {
		c.geo = g.Router
		if c.geo == nil {
			c.geo = NewNearestRegionRouter()
		}
		if r, ok := c.geo.(resettable); ok {
			r.reset()
		}
		c.bal = g.Obs.Stream("geo", "geo-balancer")
		c.cloud.observe(g.Obs, "geo")
	}

	// resolve maps a plan entry's region scope to a topology index; an
	// empty scope names the home region (index 0).
	resolve := func(field string, i int, region string) (int, error) {
		switch {
		case region == "":
			return 0, nil
		case !geoTier:
			return 0, fmt.Errorf("serve: FaultPlan.%s[%d].Region %q: a Cluster has no regions", field, i, region)
		}
		if ri := g.Topology.Index(region); ri >= 0 {
			return ri, nil
		}
		return 0, fmt.Errorf("serve: FaultPlan.%s[%d].Region %q not in topology %v", field, i, region, g.Topology.Regions)
	}
	// Fault wiring comes before any fleet spawns, so degrade windows and
	// outage darkness apply to the initial fleets too. A fault plan also
	// turns on the health tier (see health.go).
	c.faultsOn = g.Faults != nil
	var degradeIn []int
	if c.faultsOn {
		if err := g.Faults.Validate(); err != nil {
			return nil, err
		}
		c.maxRetries = g.Faults.Retries()
		c.nextProbe = DefaultProbeInterval
		c.retry = newRetrier(g.Faults.Retry)
		for i, cr := range g.Faults.Crashes {
			ri, err := resolve("Crashes", i, cr.Region)
			if err != nil {
				return nil, err
			}
			c.crashes = append(c.crashes, regionCrash{
				ev: crashEvent{at: cr.At, restart: cr.Restart, replica: cr.Replica}, region: ri,
			})
		}
		for i, o := range g.Faults.Outages {
			ri, err := resolve("Outages", i, o.Region)
			if err != nil {
				return nil, err
			}
			c.crashes = append(c.crashes, regionCrash{
				ev: crashEvent{at: o.Start, restart: o.End, outage: true}, region: ri,
			})
		}
		slices.SortStableFunc(c.crashes, func(a, b regionCrash) int {
			if d := cmp.Compare(a.ev.at, b.ev.at); d != 0 {
				return d
			}
			return cmp.Compare(a.region, b.region)
		})
		for i, d := range g.Faults.Degrades {
			ri, err := resolve("Degrades", i, d.Region)
			if err != nil {
				return nil, err
			}
			degradeIn = append(degradeIn, ri)
		}
	}

	c.regions = make([]*fleetState, len(g.Regions))
	for i, reg := range g.Regions {
		name := reg.Name
		if geoTier {
			name = g.Topology.Regions[i]
			if reg.Name != "" && reg.Name != name {
				return nil, fmt.Errorf("serve: Geo.Regions[%d].Name %q is not Topology.Regions[%d] %q", i, reg.Name, i, name)
			}
		}
		if len(reg.Configs) == 0 {
			return nil, fmt.Errorf("serve: region %s has no replicas (its Configs is empty)", name)
		}
		var ac AutoscaleConfig
		if reg.Autoscale != nil {
			ac = *reg.Autoscale
		}
		ac = ac.withDefaults(len(reg.Configs))
		if err := ac.validate(len(reg.Configs)); err != nil {
			if geoTier {
				err = fmt.Errorf("serve: region %s: %w", name, err)
			}
			return nil, err
		}
		local := reg.Router
		if local == nil {
			local = NewLeastOutstandingRouter()
		}
		if r, ok := local.(resettable); ok {
			r.reset()
		}
		if r, ok := ac.Scaler.(resettable); ok {
			r.reset()
		}
		_, assigned := local.(assignedRouter)
		fleet := &fleetState{
			ac: ac, name: name, router: local, nextEval: ac.Interval,
			breakers: g.Breakers, cloud: c.cloud,
			sampleCloud: !geoTier && c.cloud != nil,
			// The geo tier reads regional backlogs and queues, breakers
			// read terminal outcomes, the cloud drain reads staged
			// waiters after every advance, and a router not known to read
			// assigned work alone may read live backlogs.
			eager: geoTier || g.Breakers != nil || c.cloud != nil || !assigned,
		}
		if geoTier && g.Breakers != nil {
			fleet.regionBreaker = newBreaker(*g.Breakers)
		}
		if geoTier {
			fleet.observe(g.Obs, name, "balancer")
		} else {
			fleet.observe(g.Obs, "", "balancer")
			c.bal = fleet.bal
			c.cloud.observe(g.Obs, "")
		}
		for j, ri := range degradeIn {
			if ri == i {
				fleet.degrades = append(fleet.degrades, g.Faults.Degrades[j])
			}
		}
		for _, cfg := range reg.Configs {
			// Initial fleets are pre-provisioned: ready at time zero.
			if err := fleet.spawn(cfg, 0, 0); err != nil {
				return nil, err
			}
		}
		c.regions[i] = fleet
	}
	return c, nil
}

// run replays the trace. Each request is placed at its arrival (by the
// geo router, then the chosen region's replica router); between
// arrivals the fleets advance to each controller event — a crash, a
// health probe, a backoff release, or a region's autoscaler evaluation
// — in time order. After the last arrival the regions keep evaluating
// on their own clocks until every fleet is idle and no parked or
// backed-off work remains.
func (c *controller) run(t *workload.Trace) (*Result, error) {
	c.reserve(t)
	for _, r := range t.Requests {
		for {
			at, kind, ri := c.nextEvent(false)
			if at > r.Arrival {
				break
			}
			c.advance(at, ri, false)
			if err := c.handle(at, kind, ri, false); err != nil {
				return nil, err
			}
		}
		c.advance(r.Arrival, -1, false)
		if err := c.flush(r.Arrival); err != nil {
			return nil, err
		}
		// The shared tier answers fresh arrivals only; crash retries and
		// outage refugees re-enter placement without consulting it.
		if c.shared.intercept(r) {
			c.bal.Event(r.Arrival, obs.EvSharedHit, r.ID, "")
			continue
		}
		// Each fresh admission replenishes the retry budget (nil-safe
		// no-op when no budget is configured).
		c.retry.noteAdmission()
		if err := c.place(r, r.Arrival); err != nil {
			return nil, err
		}
	}
	// Drain: no further arrivals, so scale-ups are suppressed (see
	// fleetState.draining) unless faults left parked work with nothing
	// routable. Probes and crashes keep firing so dark replicas still get
	// ejected and their black-holed work still reaches a terminal outcome.
	// A fleet left behind first steps to the last arrival with final
	// unset, as that arrival's advance stepped an eager fleet, so the
	// end-of-trace rules start at the same point in both.
	for _, f := range c.regions {
		f.sync()
		f.draining = true
	}
	for !c.done() {
		at, kind, ri := c.nextEvent(true)
		c.advance(at, ri, true)
		if c.done() {
			break
		}
		if err := c.handle(at, kind, ri, true); err != nil {
			return nil, err
		}
	}
	// Waiters staged by the fleets' final steps get their cloud offer
	// before metrics collection, so refused waiters' shed rows exist.
	c.drainCloud()
	return c.result()
}

// reserve pre-sizes every initial replica's completion list from the
// trace: an even share of the requests.
func (c *controller) reserve(t *workload.Trace) {
	replicas := 0
	for _, f := range c.regions {
		replicas += len(f.replicas)
	}
	for _, f := range c.regions {
		for _, rep := range f.replicas {
			rep.engine.reserve(len(t.Requests) / replicas)
		}
	}
}

// parked reports work waiting outside every engine: parked at the
// balancer or backed off in the retry queue.
func (c *controller) parked() bool {
	return len(c.pending) > 0 || c.retry.pending() > 0
}

// done reports the end of the drain phase.
func (c *controller) done() bool {
	if c.parked() {
		return false
	}
	for _, f := range c.regions {
		if !f.allDone() {
			return false
		}
	}
	return true
}

// nextEvent returns the earliest controller event: a fault event (ri is
// -1) or region ri's evaluation. Fault events outrank evaluations at
// equal times — failure, then detection, then reaction — and regions
// break ties by index, so runs are reproducible. In the drain phase an
// idle region stops evaluating unless parked work may still need it.
func (c *controller) nextEvent(final bool) (at time.Duration, kind, ri int) {
	at, kind, ri = noHorizon, evEval, -1
	for i, f := range c.regions {
		if final && f.allDone() && !c.parked() {
			continue
		}
		if ri < 0 || f.nextEval < at {
			at, ri = f.nextEval, i
		}
	}
	if fat, fkind, ok := c.nextFault(); ok && fat <= at {
		return fat, fkind, -1
	}
	return at, kind, ri
}

// nextFault returns the earliest upcoming fault event; crashes outrank
// probes, which outrank backoff releases, at equal times.
func (c *controller) nextFault() (time.Duration, int, bool) {
	if !c.faultsOn {
		return 0, 0, false
	}
	// The probe clock always has a next sweep.
	at, kind := c.nextProbe, evProbe
	if c.nextCrash < len(c.crashes) && c.crashes[c.nextCrash].ev.at <= at {
		at, kind = c.crashes[c.nextCrash].ev.at, evCrash
	}
	if r, ok := c.retry.nextRelease(); ok && r < at {
		at, kind = r, evRelease
	}
	return at, kind, true
}

// advance moves region ri (every region when ri < 0, in index order) to
// now, stepping it there if it is eager or final, then offers the staged
// shed-or-buy waiters to the cloud (a cloud tier makes every fleet eager).
func (c *controller) advance(now time.Duration, ri int, final bool) {
	if ri >= 0 {
		c.regions[ri].advance(now, final)
	} else {
		for _, f := range c.regions {
			f.advance(now, final)
		}
	}
	c.drainCloud()
}

// handle runs one controller event at now (the fleets already advanced
// to it), then re-places parked work if anything became routable.
// Stranded parked work is reaped right after an evaluation: at that
// point the autoscaler has just declined to spawn the capacity it needs.
func (c *controller) handle(now time.Duration, kind, ri int, final bool) error {
	if kind != evEval {
		if err := c.fire(now, kind); err != nil {
			return err
		}
		return c.flush(now)
	}
	f := c.regions[ri]
	if !final || !f.allDone() || c.parked() {
		n := 0
		for _, p := range c.pending {
			if p.origin == ri {
				n++
			}
		}
		if err := f.evaluate(now, n); err != nil {
			return err
		}
	}
	f.nextEval += f.ac.Interval
	c.reap(now)
	return c.flush(now)
}

// fire applies one fault event and re-submits the work it dislodged.
func (c *controller) fire(now time.Duration, kind int) error {
	var lost []workload.Request
	switch kind {
	case evCrash:
		rc := c.crashes[c.nextCrash]
		c.nextCrash++
		lost = c.regions[rc.region].applyCrashEvent(rc.ev, now)
	case evProbe:
		c.nextProbe += DefaultProbeInterval
		for _, f := range c.regions {
			lost = append(lost, f.probeAll(now)...)
		}
	case evRelease:
		// Backed-off retries whose delay elapsed re-enter placement.
		for _, r := range c.retry.takeDue(now) {
			c.bal.Event(now, obs.EvRetry, r.ID, "")
			if err := c.place(r, now); err != nil {
				return err
			}
		}
	}
	return c.resubmit(lost, now)
}

// resubmit returns crash-lost work to placement: within the retry bound
// (and the retry budget, when a RetryPolicy is set) it re-enters with an
// incremented retry count — immediately, or after a jittered exponential
// backoff under a policy (original submission time preserved for
// metrics). Beyond either limit the request is dropped with the
// crash-dropped rejection. Re-placement may land in another region.
func (c *controller) resubmit(lost []workload.Request, now time.Duration) error {
	for _, r := range lost {
		sub := r.SubmittedAt()
		if r.Retries >= c.maxRetries {
			c.dropped = append(c.dropped, rejectedRow(r, "", RejectCrashDropped))
			c.bal.Event(now, obs.EvDrop, r.ID, "retry-budget")
			continue
		}
		if !c.retry.take() {
			c.dropped = append(c.dropped, rejectedRow(r, "", RejectCrashDropped))
			c.bal.Event(now, obs.EvDrop, r.ID, "retry-budget-exhausted")
			continue
		}
		r.Retries++
		r.Submitted = sub
		if d := c.retry.delay(r.Retries); d > 0 {
			r.Arrival = now + d
			c.retry.waited += d
			c.retry.park(r, now+d)
			continue
		}
		r.Arrival = now
		c.bal.Event(now, obs.EvRetry, r.ID, "")
		if err := c.place(r, now); err != nil {
			return err
		}
	}
	return nil
}

// place routes one request at now. Without a geo tier it goes straight
// to the lone region's replica router; with one, the geo router picks
// the region from live regional views (with the origin's RTT row) and
// cloud-aware geo routers may buy it instead. When nothing anywhere is
// routable the request parks at the balancer until flush.
func (c *controller) place(r workload.Request, now time.Duration) error {
	if c.geo == nil {
		f := c.regions[0]
		f.promote(now)
		if f.routableCount() == 0 {
			c.pending = append(c.pending, parkedReq{req: r})
			return nil
		}
		return f.route(r, now)
	}
	origin, err := originOfName(c.topo, r.Origin)
	if err != nil {
		return err
	}
	views := c.views[:0]
	anyUp := false
	for i, f := range c.regions {
		v := f.regionView(now)
		v.RTT = c.topo.RTT[origin][i]
		if !v.Down {
			anyUp = true
		}
		views = append(views, v)
	}
	c.views = views
	if !anyUp {
		c.pending = append(c.pending, parkedReq{req: r, origin: origin})
		return nil
	}
	if c.cloud != nil {
		if ca, ok := c.geo.(CloudAwareGeoRouter); ok && ca.RouteCloud(r, origin, views, c.cloud.view(now)) {
			if c.cloud.offer(r, now, "geo-overflow") {
				return nil
			}
			// Refused or transiently failed: fall through to regional
			// placement.
		}
	}
	gi := c.geo.Route(r, origin, views)
	if gi < 0 || gi >= len(c.regions) {
		return fmt.Errorf("serve: geo router %s returned region %d of %d", c.geo.Name(), gi, len(c.regions))
	}
	f := c.regions[gi]
	if f.routableCount() == 0 {
		return fmt.Errorf("serve: geo router %s placed a request on dark region %s", c.geo.Name(), f.name)
	}
	c.bal.Event(now, obs.EvRoute, r.ID, f.name)
	return f.route(r, now)
}

// flush re-places parked work in arrival order once any region is
// routable again.
func (c *controller) flush(now time.Duration) error {
	if len(c.pending) == 0 {
		return nil
	}
	routable := false
	for _, f := range c.regions {
		f.promote(now)
		if f.routableCount() > 0 {
			routable = true
			break
		}
	}
	if !routable {
		return nil
	}
	pend := c.pending
	c.pending = nil
	for _, p := range pend {
		if err := c.place(p.req, now); err != nil {
			return err
		}
	}
	return nil
}

// reap drops all parked work when nothing can ever serve it: zero
// routable replicas everywhere and no recovery in sight. Without it a
// dead deployment would spin the drain loop forever; with it every
// request still reaches a terminal, conservation-checked outcome.
func (c *controller) reap(now time.Duration) {
	if len(c.pending) == 0 {
		return
	}
	for _, f := range c.regions {
		if f.routableCount() > 0 || f.canRecover() {
			return
		}
	}
	for _, p := range c.pending {
		c.dropped = append(c.dropped, rejectedRow(p.req, "", RejectCrashDropped))
		c.bal.Event(now, obs.EvDrop, p.req.ID, "stranded")
	}
	c.pending = nil
}

// drainCloud offers every staged shed-or-buy waiter to the cloud tier in
// one global (shed time, request ID) order, not the order the replicas
// stepped in, and restores refusals to the normal shed path. Must run
// right after each advance, before the controller acts on anything the
// step produced: a refusal's shed row must be in its engine's rejected
// list before the next breaker sync or autoscaler window reads it, and
// an accepted request's spend must be on the cloud's books before the
// next routing decision consults it. It
// runs once more before result assembly.
func (c *controller) drainCloud() {
	if c.cloud == nil {
		return
	}
	type staged struct {
		e *Engine
		cloudShedEntry
	}
	var all []staged
	for _, f := range c.regions {
		for _, rep := range f.replicas {
			for _, en := range rep.engine.takeCloudShed() {
				all = append(all, staged{rep.engine, en})
			}
		}
	}
	if len(all) == 0 {
		return
	}
	slices.SortFunc(all, func(a, b staged) int {
		if d := cmp.Compare(a.at, b.at); d != 0 {
			return d
		}
		return cmp.Compare(a.s.req.ID, b.s.req.ID)
	})
	for _, en := range all {
		if !c.cloud.offer(en.s.req, en.at, "shed-or-buy") {
			en.e.shedStaged(en.s, en.at)
		}
	}
}

// noHorizon is an unreachable event horizon: drain-phase events always
// come before it.
const noHorizon = time.Duration(1<<63 - 1)

// result collects per-engine metrics region by region and assembles the
// accounting, including the crash-dropped records and recovery
// counters. Under the geo tier, remotely served requests also pay the
// origin→region RTT on their TTFT and completion, every row names its
// origin and serving region, and the per-region split fills RegionStats.
func (c *controller) result() (*Result, error) {
	geo := c.geo != nil
	// Crash-dropped, shared-tier, and cloud-served requests never reached
	// a replica: under the geo tier they bill to their origin region with
	// no RTT.
	offFleet := [][]RequestMetrics{c.dropped, c.shared.metricsList(), c.cloud.metricsList()}
	rows, replicas := 0, 0
	for _, list := range offFleet {
		rows += len(list)
	}
	for _, f := range c.regions {
		replicas += len(f.replicas)
		for _, rep := range f.replicas {
			rows += len(rep.engine.completed) + len(rep.engine.rejected)
		}
	}
	metrics := make([]RequestMetrics, 0, rows)
	engines := make([]*Engine, 0, replicas)
	for gi, f := range c.regions {
		for _, rep := range f.replicas {
			from := len(metrics)
			metrics = rep.engine.appendMetrics(metrics)
			ms := metrics[from:]
			for k := 0; geo && k < len(ms); k++ {
				origin, err := originOfName(c.topo, ms[k].Origin)
				if err != nil {
					return nil, err
				}
				rtt := c.topo.RTT[origin][gi]
				ms[k].Origin = c.topo.Regions[origin]
				ms[k].Region = f.name
				ms[k].RTT = rtt
				if !ms[k].Rejected {
					ms[k].TTFT += rtt
					ms[k].Completion += rtt
				}
			}
			engines = append(engines, rep.engine)
		}
	}
	for _, list := range offFleet {
		for _, m := range list {
			if geo {
				origin, err := originOfName(c.topo, m.Origin)
				if err != nil {
					return nil, err
				}
				m.Origin = c.topo.Regions[origin]
				m.Region = m.Origin
			}
			metrics = append(metrics, m)
		}
	}
	res := buildResult(c.name, metrics, engines)
	c.shared.fill(res)
	res.RetryBackoffWait = c.retry.backoffWait()

	// Fleet accounting: per-region lifetimes, all billed against the
	// shared global makespan.
	res.Replicas = make([]ReplicaLife, 0, replicas)
	if geo {
		res.RegionStats = make([]RegionStats, len(c.regions))
	}
	for gi, f := range c.regions {
		res.ReplicaCrashes += f.crashCount
		res.Ejections += f.ejections
		res.Readmissions += f.readmissions
		res.WorkLostTokens += f.workLost
		res.BreakerOpens += f.breakerOpens()
		if f.regionBreaker != nil {
			res.BreakerOpens += f.regionBreaker.opens
		}
		var seconds float64
		res.Replicas, seconds = f.finish(res.Makespan, res.Replicas)
		res.ReplicaSeconds += seconds
		res.ScaleUps += f.scaleUps
		res.ScaleDowns += f.scaleDowns
		if geo {
			res.RegionStats[gi] = RegionStats{
				Name: f.name, ReplicaSeconds: seconds, ScaleUps: f.scaleUps,
				ScaleDowns: f.scaleDowns,
			}
		}
	}
	if geo {
		c.regionSplit(res)
	}
	// Fill after the per-region loop: ReplicaSeconds is final only once
	// every region's lifetimes have been accrued above.
	c.cloud.fill(res)
	return res, nil
}

// regionSplit bills every request row to its origin and serving regions.
func (c *controller) regionSplit(res *Result) {
	for _, m := range res.PerRequest {
		o := c.topo.Index(m.Origin)
		s := c.topo.Index(m.Region)
		res.RegionStats[o].OriginRequests++
		st := &res.RegionStats[s]
		st.ServedRequests++
		if m.Replica == CloudReplica {
			tok := m.InputTokens + m.OutputTokens
			st.CloudRequests++
			st.CloudTokens += tok
			st.CloudSpend += c.cloud.cfg.PricePerMToken * float64(tok) / 1e6
		}
		if o != s {
			st.SpillIn++
			res.RegionStats[o].SpillOut++
		}
		if m.Rejected {
			st.Rejected++
		} else {
			st.TTFT.AddDuration(m.TTFT)
		}
		st.SLO.add(m)
	}
}
