package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// DefaultScaleInterval is the autoscaler evaluation period when
// AutoscaleConfig.Interval is zero.
const DefaultScaleInterval = 5 * time.Second

// FleetView is what an Autoscaler sees at one evaluation boundary: the
// provisioned fleet size and signals measured from simulated engine
// state (not assumed). Queue fields cover every live replica, including
// draining ones whose backlog is still real work.
type FleetView struct {
	// Active counts replicas accepting new work, dark and health-ejected
	// ones included (they are still provisioned and billed); Warming
	// counts spawned replicas still paying their cold-start penalty.
	// Active+Warming is the size Desired answers against.
	Active  int
	Warming int
	// QueuedRequests counts requests not yet running (waiting in an
	// engine queue, not yet admitted, or parked at the balancer because
	// nothing was routable); RunningRequests the in-flight sequences.
	QueuedRequests  int
	RunningRequests int
	// WindowSLORequests counts SLO-carrying requests that completed (or
	// were rejected) since the last evaluation; WindowTTFTMet how many of
	// them met their TTFT deadline — the feedback signal for
	// attainment-driven policies.
	WindowSLORequests int
	WindowTTFTMet     int
	// WindowOutcomes counts every terminal outcome (completion or
	// rejection) in the window; WindowShed the subset cut by admission
	// control — together the controller-tick shed rate.
	WindowOutcomes int
	WindowShed     int
}

// Autoscaler decides the fleet's target size at each evaluation
// boundary. Desired returns the wanted number of active+warming replicas
// given the view; the cluster clamps it to [Min, Max], spawns the
// difference with a cold-start penalty, or drains the excess. Policies
// holding per-run state implement reset() (like routers) so repeated
// runs are reproducible.
type Autoscaler interface {
	Name() string
	Desired(v FleetView) int
}

// --- Static baseline ---

// StaticAutoscaler pins the fleet at its current size: the fixed-fleet
// baseline every Cluster without Autoscale runs under.
type StaticAutoscaler struct{}

// NewStaticAutoscaler returns the fixed-fleet baseline policy.
func NewStaticAutoscaler() Autoscaler { return StaticAutoscaler{} }

// Name implements Autoscaler.
func (StaticAutoscaler) Name() string { return "static" }

// Desired implements Autoscaler: always the current provisioned target.
func (StaticAutoscaler) Desired(v FleetView) int { return v.Active + v.Warming }

// --- Queue-depth threshold ---

// QueueDepthAutoscaler scales on backlog: when the queued requests per
// provisioned replica cross High it adds Step replicas, and when they
// fall to Low it removes one. It reacts before SLOs are missed (queue
// depth is a leading indicator) but flaps under on/off bursts, paying
// repeated cold starts — exactly the trade the autoscaling experiment
// measures against the feedback policy.
type QueueDepthAutoscaler struct {
	// High is the queued-requests-per-replica threshold that adds Step
	// replicas; Low the threshold that removes one.
	High float64
	Low  float64
	// Step is the scale-up increment.
	Step int
}

// NewQueueDepthAutoscaler returns the queue-depth policy with its
// defaults: grow by 1 above 4 queued per replica (a few seconds of
// backlog at typical request service times), shrink below 1.
func NewQueueDepthAutoscaler() Autoscaler {
	return &QueueDepthAutoscaler{High: 4, Low: 1, Step: 1}
}

// Name implements Autoscaler.
func (*QueueDepthAutoscaler) Name() string { return "queue-depth" }

// Desired implements Autoscaler.
func (a *QueueDepthAutoscaler) Desired(v FleetView) int {
	cur := v.Active + v.Warming
	if cur < 1 {
		cur = 1
	}
	per := float64(v.QueuedRequests) / float64(cur)
	if per >= a.High {
		return cur + a.Step
	}
	if per <= a.Low {
		return cur - 1
	}
	return cur
}

// --- SLO-attainment feedback with hysteresis ---

// SLOFeedbackAutoscaler scales on measured TTFT attainment over the last
// evaluation window: below Target it grows, and it shrinks only when
// attainment sits at/above Relax with an empty queue — the [Target,
// Relax) band is the hysteresis that keeps marginal fleets from
// flapping. After any change it holds for Cooldown evaluations so the
// new replica's cold start (and its effect on attainment) is observed
// before acting again.
type SLOFeedbackAutoscaler struct {
	// Target is the attainment floor that triggers growth; Relax the
	// ceiling required (with an empty queue) before shrinking.
	Target float64
	Relax  float64
	// Cooldown is the number of evaluations to hold after a change.
	Cooldown int

	hold int
}

// NewSLOFeedbackAutoscaler returns the feedback policy with its
// defaults: grow under 90% attainment, shrink at 99%+, cooldown 3.
func NewSLOFeedbackAutoscaler() Autoscaler {
	return &SLOFeedbackAutoscaler{Target: 0.90, Relax: 0.99, Cooldown: 3}
}

// Name implements Autoscaler.
func (*SLOFeedbackAutoscaler) Name() string { return "slo-feedback" }

func (a *SLOFeedbackAutoscaler) reset() { a.hold = 0 }

// Desired implements Autoscaler.
func (a *SLOFeedbackAutoscaler) Desired(v FleetView) int {
	cur := v.Active + v.Warming
	if a.hold > 0 {
		a.hold--
		return cur
	}
	att := 1.0
	if v.WindowSLORequests > 0 {
		att = float64(v.WindowTTFTMet) / float64(v.WindowSLORequests)
	}
	if att < a.Target {
		a.hold = a.Cooldown
		return cur + 1
	}
	if att >= a.Relax && v.QueuedRequests == 0 {
		a.hold = a.Cooldown
		return cur - 1
	}
	return cur
}

var builtinAutoscalers = registry[Autoscaler]{
	{"static", NewStaticAutoscaler},
	{"queue-depth", NewQueueDepthAutoscaler},
	{"slo-feedback", NewSLOFeedbackAutoscaler},
}

// AutoscalerNames lists the built-in policies in presentation order.
var AutoscalerNames = builtinAutoscalers.names()

// NewAutoscaler returns a fresh instance of a built-in policy by name.
func NewAutoscaler(name string) (Autoscaler, error) {
	return builtinAutoscalers.lookup("autoscaler", name)
}

// AutoscaleConfig attaches replica autoscaling to a cluster: Cluster.Run
// then grows and shrinks the fleet at each evaluation interval instead
// of serving the whole trace on the initial replicas.
type AutoscaleConfig struct {
	// Scaler is the policy; nil means the static baseline.
	Scaler Autoscaler
	// Interval is the evaluation period; 0 means DefaultScaleInterval.
	Interval time.Duration
	// ColdStart is the provision-to-ready penalty charged to every
	// spawned replica (model load + KV warmup): the replica is paid for
	// from its spawn instant but accepts no work until the penalty
	// elapses. 0 models pre-warmed standby capacity.
	ColdStart time.Duration
	// Min and Max bound the provisioned (active+warming) fleet.
	// Zero values default to Min=1 and Max=4x the initial fleet.
	Min, Max int
}

func (ac AutoscaleConfig) withDefaults(initial int) AutoscaleConfig {
	if ac.Scaler == nil {
		ac.Scaler = NewStaticAutoscaler()
	}
	if ac.Interval == 0 {
		ac.Interval = DefaultScaleInterval
	}
	if ac.Min == 0 {
		ac.Min = 1
	}
	if ac.Max == 0 {
		ac.Max = 4 * initial
	}
	return ac
}

// validate checks the config after withDefaults, which leaves negative
// values in place for it to reject.
func (ac AutoscaleConfig) validate(initial int) error {
	switch {
	case ac.Interval < 0:
		return fmt.Errorf("serve: AutoscaleConfig.Interval %v is negative", ac.Interval)
	case ac.ColdStart < 0:
		return fmt.Errorf("serve: AutoscaleConfig.ColdStart %v is negative", ac.ColdStart)
	case ac.Min < 0:
		return fmt.Errorf("serve: AutoscaleConfig.Min %d is negative", ac.Min)
	case ac.Max < 0:
		return fmt.Errorf("serve: AutoscaleConfig.Max %d is negative", ac.Max)
	case ac.Max < ac.Min:
		return fmt.Errorf("serve: AutoscaleConfig.Max %d is below Min %d", ac.Max, ac.Min)
	case initial > ac.Max || initial < ac.Min:
		return fmt.Errorf("serve: initial fleet %d is outside AutoscaleConfig.Min/Max [%d, %d]", initial, ac.Min, ac.Max)
	}
	return nil
}

// replicaState tracks one replica through its autoscaled lifecycle.
type replicaState int

const (
	replicaWarming replicaState = iota
	replicaActive
	replicaDraining
	replicaRetired
)

// replica is the controller's record of one engine in the fleet.
type replica struct {
	id      int
	engine  *Engine
	state   replicaState
	spawnAt time.Duration
	readyAt time.Duration
	drainAt time.Duration
	// retireAt is set when the replica leaves the fleet (drain finished,
	// warming cancelled, or end of run).
	retireAt time.Duration
	drained  bool
	// Assigned-work counters, cumulative (never decremented on
	// completion): assignedTokens feeds ReplicaView.OutstandingTokens and
	// FreeKVTokens, assignedReqs the replica's lifetime record. The
	// handicap levels an activated replica's view with the least-loaded
	// incumbent (see level); lifetime accounting uses the raw counters.
	assignedTokens int
	assignedReqs   int
	tokenHandicap  int
	kvCapacity     int
	// window is the autoscaler window's read point over the engine's
	// terminal lists.
	window outcomes

	// Health/fault state (all zero without fault injection). down marks
	// the machine dark: its engine is not stepped and everything routed
	// to it black-holes until the health tier ejects it. restartAt is
	// when the machine comes back (0: never). ejected removes it from
	// the routing set; readmission waits for recovery plus cooldown.
	down       bool
	restartAt  time.Duration
	probeFails int
	ejected    bool
	ejectedAt  time.Duration

	// Circuit breaker (nil unless the fleet enables breakers). bkSeen is
	// its read point over the engine's terminal lists, which feed it at
	// controller points; crashes trip the breaker directly. regionSeen is
	// the region breaker's read point over the same lists.
	breaker    *breaker
	bkSeen     outcomes
	regionSeen outcomes
}

// remaining counts routed-but-unfinished requests, the drain-victim
// selection key.
func (rep *replica) remaining() int {
	e := rep.engine
	return e.waiting.len() + len(e.running) + len(e.arrivals) - e.nextIdx
}

// fleetState is the serving controller's record of one region: its
// fleet, the local router that places requests on it, its evaluation
// cursor, and (under the geo tier) the region breaker and the
// active-time integral behind RegionView.MeasuredRate. A Cluster is one
// such region.
type fleetState struct {
	ac       AutoscaleConfig
	name     string
	router   Router
	nextEval time.Duration
	// activeSeconds integrates active-replica time between controller
	// events, the denominator of the measured per-replica rate.
	activeSeconds float64
	lastAccrual   time.Duration
	// lockstep steps the fleet on one shared clock (vLLM's DP engine; see
	// stepLockstep); clock is that clock and lockWork the per-iteration
	// scratch of staged plans.
	lockstep bool
	clock    time.Duration
	lockWork []stagedIter
	// horizon is how far the controller has advanced the fleet; behind
	// marks replicas not yet stepped there. eager marks a fleet whose
	// arrivals read replica state (the geo tier, lockstep, breakers, a
	// cloud tier, or a router that may read live views): it steps at
	// every advance. Any other fleet steps only when a reader syncs, so an
	// arrival there just enqueues on an engine that may lag it, as
	// Engine.Run enqueues its whole share before stepping. replicaSteps
	// counts the stepUntil calls made.
	horizon      time.Duration
	behind       bool
	eager        bool
	replicaSteps int
	replicas     []*replica
	scaleUps     int
	scaleDowns   int
	// draining marks the post-trace phase: no further arrivals exist, so
	// scale-ups are suppressed (a replica spawned now could never receive
	// work, only bill replica-seconds until the end of the run).
	draining bool

	// Fault/health machinery (inert without a fault plan; see health.go).
	// degrades and outageUntil are consulted at spawn time; the counters
	// feed Result's recovery metrics.
	degrades     []workload.Degrade
	outageUntil  time.Duration
	crashCount   int
	ejections    int
	readmissions int
	workLost     int

	// breakers enables per-replica circuit breakers (nil: off, the
	// legacy routing path byte-for-byte). regionBreaker is the geo tier's
	// breaker over the whole region (nil unless Geo.Breakers is set): it
	// aggregates every replica's terminal outcomes through its own read
	// point (replica.regionSeen), and any replica crash trips it;
	// regionCrashSeen is its read point over crashCount.
	breakers        *BreakerConfig
	regionBreaker   *breaker
	regionCrashSeen int

	// cloud is the controller's elastic backend (nil: off): cloud-aware
	// replica routers may overflow to it, and spawned engines stage
	// shed-or-buy waiters for the controller's cloud drain. sampleCloud
	// adds the tier's columns to this fleet's obs samples (the lone region
	// of a Cluster; a geo tier's regions share the backend, so none of
	// them owns its series); lastCloudReqs is obsSample's window cursor.
	cloud         *cloudTier
	sampleCloud   bool
	lastCloudReqs int

	// Observability (nil/inert unless the run sets an Observer). bal is
	// the fleet's balancer track; obsRegion labels replica tracks (the
	// region name on the geo tier, "" otherwise); clsReq/clsMet roll up
	// per-class window attainment between controller ticks, consumed by
	// obsSample.
	obs       *obs.Observer
	bal       *obs.Stream
	obsRegion string
	clsReq    map[string]int
	clsMet    map[string]int

	// views and targets are route's reusable scratch: the routable
	// replicas' router views and the replicas they describe.
	views   []ReplicaView
	targets []*replica
}

// observe wires the fleet to an observer: registers the balancer
// track and the class-attainment scratch. Must run before the initial
// spawns so replica tracks register in spawn order after the balancer.
// Nil-safe: a nil observer leaves the fleet on the untraced path.
func (f *fleetState) observe(o *obs.Observer, region, balancer string) {
	if o == nil {
		return
	}
	f.obs = o
	f.obsRegion = region
	f.bal = o.Stream(region, balancer)
	f.clsReq = map[string]int{}
	f.clsMet = map[string]int{}
}

func (f *fleetState) spawn(cfg Config, at, cold time.Duration) error {
	id := len(f.replicas)
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("%s-replica%d", f.name, id)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return err
	}
	if f.obs != nil {
		e.attachStream(f.obs.Stream(f.obsRegion, cfg.Name))
	}
	e.buyDivert = f.cloud != nil
	// The engine's clock starts at readiness so a spawned replica cannot
	// serve a token before its warmup elapses.
	e.now = at + cold
	rep := &replica{
		id: id, engine: e, spawnAt: at, readyAt: at + cold,
		kvCapacity: e.KVCapacityTokens(), state: replicaWarming,
	}
	if f.breakers != nil {
		rep.breaker = newBreaker(*f.breakers)
	}
	if cold == 0 {
		rep.state = replicaActive
	}
	// Degrade windows match by spawn-order id (first match wins); spawns
	// during a region outage start dark and recover with it.
	for _, d := range f.degrades {
		if d.Replica == id {
			e.setDegrade(d.Slowdown, d.Start, d.End)
			break
		}
	}
	if at < f.outageUntil {
		rep.down = true
		rep.restartAt = f.outageUntil
	}
	f.replicas = append(f.replicas, rep)
	if rep.state == replicaActive {
		f.level(rep)
	}
	return nil
}

// level handicaps a newly activated replica's router view to the
// least-loaded incumbent. Views track cumulative assigned work
// (arrival-time routing, PR 1 semantics), so a newcomer entering at
// zero would look infinitely idle and least-outstanding routing would
// funnel every subsequent request to it until it "caught up" with the
// incumbents' lifetime totals. Levelling happens at readiness — not at
// spawn — so traffic the incumbents absorbed during the cold start does
// not reappear as a funnel the instant the newcomer warms up. Static
// fleets never activate mid-run replicas, so the bit-for-bit baseline
// is untouched.
func (f *fleetState) level(rep *replica) {
	first := true
	for _, other := range f.replicas {
		if other == rep || other.state != replicaActive {
			continue
		}
		if load := other.assignedTokens + other.tokenHandicap; first || load < rep.tokenHandicap {
			rep.tokenHandicap = load
		}
		first = false
	}
}

// promote activates warming replicas whose cold start has elapsed,
// levelling their router view with the incumbents at that instant.
func (f *fleetState) promote(now time.Duration) {
	for _, rep := range f.replicas {
		if rep.state == replicaWarming && rep.readyAt <= now {
			rep.state = replicaActive
			f.level(rep)
		}
	}
}

// advance moves the fleet's horizon to the controller's clock. An
// eager fleet, and every final advance, steps there at once; any other
// fleet is left behind until a reader syncs.
func (f *fleetState) advance(horizon time.Duration, final bool) {
	f.horizon, f.behind = horizon, true
	if f.eager || final {
		f.step(final)
	}
}

// sync steps a fleet left behind to its horizon. Everything that reads
// replica state calls it first: evaluation (the autoscaler's view, the
// drain victims and the obs sample), probes, crashes and the run's
// drain.
func (f *fleetState) sync() {
	if f.behind {
		f.step(false)
	}
}

// step accrues the region's active time to the horizon, steps every live
// engine to it, in index order, and retires draining replicas that have
// finished their in-flight work; a draining replica gets no further
// arrivals. A lockstep fleet steps on its shared clock instead. Dark
// machines do not step: their clock resumes (bumped to the probe time)
// when they restart.
func (f *fleetState) step(final bool) {
	f.behind = false
	f.accrue(f.horizon)
	if f.lockstep {
		f.stepLockstep(f.horizon, final)
	} else {
		for _, rep := range f.replicas {
			if rep.live() {
				rep.engine.stepUntil(f.horizon, final || rep.state == replicaDraining)
				f.replicaSteps++
			}
		}
	}
	for _, rep := range f.replicas {
		if rep.state == replicaDraining && rep.engine.finished() {
			rep.state = replicaRetired
			rep.retireAt = max(rep.drainAt, rep.engine.now)
		}
	}
}

// live reports whether the replica's engine steps: retired replicas are
// gone, and dark machines do not step.
func (rep *replica) live() bool { return rep.state != replicaRetired && !rep.down }

// stagedIter is one replica's planned iteration in a lockstep step.
type stagedIter struct {
	e    *Engine
	plan batchPlan
	cost perf.Cost
}

// stepLockstep advances the fleet on its shared clock, vLLM's DP engine
// semantics: every live replica plans an iteration at the clock through
// the engine's own plan step (nextPlan), and the global iteration lasts
// as long as the slowest replica's step, so idle and faster replicas
// wait. Like stepUntil, it never starts an iteration at or past the
// horizon. A wholly idle fleet parks at the horizon: a lockstep cluster
// has no faults and so no retries, so every arrival was routed at the
// horizon of an earlier advance, at or before the clock, and nextPlan
// has already admitted it.
func (f *fleetState) stepLockstep(horizon time.Duration, final bool) {
	for f.clock < horizon {
		work := f.lockWork[:0]
		var slowest time.Duration
		for _, rep := range f.replicas {
			e := rep.engine
			if !rep.live() || e.finished() {
				continue
			}
			e.now = f.clock
			plan := e.nextPlan(final)
			if plan.empty() {
				continue
			}
			cost := e.price(&plan)
			slowest = max(slowest, cost.Total())
			work = append(work, stagedIter{e, plan, cost})
		}
		f.lockWork = work
		if len(work) == 0 {
			f.clock = horizon
			break
		}
		f.clock += slowest
		for _, w := range work {
			w.e.apply(w.plan, w.cost, f.clock)
		}
	}
}

func (f *fleetState) allDone() bool {
	for _, rep := range f.replicas {
		if rep.state != replicaRetired && !rep.engine.finished() {
			return false
		}
	}
	return true
}

// syncBreakers feeds each replica's terminal outcomes since the last
// sync into its breaker (crashes trip directly in crashReplica). Runs
// at controller points, in replica index order, so the state machines
// see one fixed signal order.
func (f *fleetState) syncBreakers(now time.Duration) {
	if f.breakers == nil {
		return
	}
	for _, rep := range f.replicas {
		done, rej := rep.bkSeen.since(rep.engine)
		rep.breaker.feed(done, rej, now, rep.engine.stream, "", "shed")
	}
}

// route places one arriving request on an active replica, judged on the
// routable replicas' views: cumulative assigned work, KV headroom, the
// engine's live backlog, and breaker state.
func (f *fleetState) route(r workload.Request, now time.Duration) error {
	f.promote(now)
	f.syncBreakers(now)
	views, targets := f.views[:0], f.targets[:0]
	for _, rep := range f.replicas {
		if !rep.routable() {
			continue
		}
		views = append(views, ReplicaView{
			Name:              rep.engine.cfg.Name,
			OutstandingTokens: rep.assignedTokens + rep.tokenHandicap,
			FreeKVTokens:      rep.kvCapacity - rep.assignedTokens - rep.tokenHandicap,
			LiveTokens:        rep.engine.backlogTokens,
			BreakerOpen:       !rep.breaker.allowOn(now, rep.engine.stream, ""),
		})
		targets = append(targets, rep)
	}
	f.views, f.targets = views, targets
	if f.cloud != nil {
		if ca, ok := f.router.(CloudAwareRouter); ok && ca.RouteCloud(r, views, f.cloud.view(now)) {
			if f.cloud.offer(r, now, "overflow") {
				return nil
			}
			// Refused or transiently failed: fall through to local
			// placement.
		}
	}
	i := f.router.Route(r, views)
	if i < 0 || i >= len(targets) {
		return fmt.Errorf("serve: router %s returned replica %d of %d", f.router.Name(), i, len(targets))
	}
	rep := targets[i]
	f.bal.Event(now, obs.EvRoute, r.ID, rep.engine.cfg.Name)
	rep.engine.enqueue(r)
	rep.assignedTokens += r.TotalTokens()
	rep.assignedReqs++
	return nil
}

// view snapshots the fleet for the autoscaler, moving each replica's
// window read point. parkedReqs counts the requests parked at the
// balancer on this fleet's behalf (nothing routable during an outage):
// backlog the policy should see and scale for.
func (f *fleetState) view(parkedReqs int) FleetView {
	var v FleetView
	for _, rep := range f.replicas {
		e := rep.engine
		// Window attainment covers every replica, retired ones included:
		// a drained replica's final completions still happened in this
		// window, and omitting them would read as an attainment dip right
		// after a scale-down.
		done, rej := rep.window.since(e)
		for _, s := range done {
			f.windowOutcome(&v, s, false)
		}
		for _, s := range rej {
			if s.rejectReason == RejectShed {
				v.WindowShed++
			}
			f.windowOutcome(&v, s, true)
		}

		switch rep.state {
		case replicaActive:
			v.Active++
		case replicaWarming:
			v.Warming++
		case replicaRetired:
			continue
		}
		v.QueuedRequests += e.waiting.len() + len(e.arrivals) - e.nextIdx
		v.RunningRequests += len(e.running)
	}
	v.QueuedRequests += parkedReqs
	return v
}

// windowOutcome tallies one terminal outcome into the autoscaler's
// window and, on a traced run, into the per-class roll-up obsSample
// consumes. TTFTMet supplies the shared deadline semantics (NoDeadline
// is never missed, not even by rejection). The window's TTFT runs from
// the request's last arrival (a retry's re-arrival), not from the
// original submission its row measures from.
func (f *fleetState) windowOutcome(v *FleetView, s *seq, rejected bool) {
	v.WindowOutcomes++
	if s.req.SLO == nil {
		return
	}
	v.WindowSLORequests++
	m := RequestMetrics{TTFT: s.firstTok - s.req.Arrival, Rejected: rejected, SLO: s.req.SLO}
	met := m.TTFTMet()
	if met {
		v.WindowTTFTMet++
	}
	if f.obs != nil {
		f.clsReq[s.req.Class]++
		if met {
			f.clsMet[s.req.Class]++
		}
	}
}

// evaluate runs one autoscaler decision at an evaluation boundary; the
// parked count is view's.
func (f *fleetState) evaluate(now time.Duration, parkedReqs int) error {
	f.sync()
	f.promote(now)
	f.syncBreakers(now)
	v := f.view(parkedReqs)
	desired := f.ac.Scaler.Desired(v)
	if desired < f.ac.Min {
		desired = f.ac.Min
	}
	if desired > f.ac.Max {
		desired = f.ac.Max
	}
	cur := v.Active + v.Warming
	if f.draining && desired > cur && f.routableCount() > 0 {
		// Post-trace scale-ups are pointless — except when faults left
		// zero routable replicas with work still pending: then a spawn is
		// the only way the backlog ever drains.
		desired = cur
	}
	switch {
	case desired > cur:
		for n := desired - cur; n > 0; n-- {
			// Spawned replicas clone the first one's config under a
			// fresh generated name.
			cfg := f.replicas[0].engine.cfg
			cfg.Name = ""
			if err := f.spawn(cfg, now, f.ac.ColdStart); err != nil {
				return err
			}
			f.scaleUps++
			f.bal.Event(now, obs.EvScaleUp, obs.NoRequest,
				f.replicas[len(f.replicas)-1].engine.cfg.Name)
		}
	case desired < cur:
		f.shrink(cur-desired, now)
	}
	if f.obs != nil {
		f.obsSample(now, desired, v)
	}
	return nil
}

// obsSample appends one controller-tick snapshot to the observer: the
// post-decision fleet composition plus the live gauges (KV occupancy,
// measured prefix-cache hit rate) and the per-class attainment rolled
// up since the previous tick. Runs at the tick, after every engine has
// reached it, so it reads engine state as of that instant.
func (f *fleetState) obsSample(now time.Duration, desired int, v FleetView) {
	smp := obs.Sample{
		At: now, Track: f.name, Desired: desired,
		QueuedRequests: v.QueuedRequests, RunningRequests: v.RunningRequests,
	}
	var capTok, usedTok, hits, misses int
	for _, rep := range f.replicas {
		switch rep.state {
		case replicaActive:
			smp.Active++
		case replicaWarming:
			smp.Warming++
		case replicaDraining:
			smp.Draining++
		case replicaRetired:
			continue
		}
		if rep.down || rep.ejected {
			smp.Down++
		}
		if rep.ejected {
			smp.Ejected++
		}
		if rep.breaker != nil {
			switch rep.breaker.state {
			case breakerOpen:
				smp.BreakersOpen++
			case breakerHalfOpen:
				smp.BreakersHalfOpen++
			}
		}
		e := rep.engine
		e.settle()
		capTok += rep.kvCapacity
		usedTok += rep.kvCapacity - e.alloc.FreeTokens()
		hits += e.cacheHits
		misses += e.cacheMisses
	}
	if capTok > 0 {
		smp.KVUtil = float64(usedTok) / float64(capTok)
	}
	if hits+misses > 0 {
		smp.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if v.WindowOutcomes > 0 {
		smp.ShedRate = float64(v.WindowShed) / float64(v.WindowOutcomes)
	}
	if f.sampleCloud {
		smp.CloudRequests = f.cloud.requests - f.lastCloudReqs
		f.lastCloudReqs = f.cloud.requests
		smp.CloudSpend = f.cloud.spend
	}
	classes := make([]string, 0, len(f.clsReq))
	for c := range f.clsReq {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		smp.Classes = append(smp.Classes, obs.ClassAttainment{
			Class: c, Requests: f.clsReq[c], TTFTMet: f.clsMet[c],
		})
	}
	clear(f.clsReq)
	clear(f.clsMet)
	f.obs.Sample(smp)
}

// breakerOpens sums lifetime open transitions across the fleet.
func (f *fleetState) breakerOpens() int {
	n := 0
	for _, rep := range f.replicas {
		if rep.breaker != nil {
			n += rep.breaker.opens
		}
	}
	return n
}

// shrink retires n replicas: warming ones are cancelled newest-first
// (they hold no work), then active ones drain — each finishes its
// in-flight requests before retiring, chosen by least remaining work
// with ties to the newest replica. At least one active replica always
// survives so arriving traffic has somewhere to land.
func (f *fleetState) shrink(n int, now time.Duration) {
	for i := len(f.replicas) - 1; i >= 0 && n > 0; i-- {
		rep := f.replicas[i]
		if rep.state == replicaWarming {
			rep.state = replicaRetired
			rep.drainAt, rep.retireAt, rep.drained = now, now, true
			f.scaleDowns++
			f.bal.Event(now, obs.EvScaleDown, obs.NoRequest, rep.engine.cfg.Name)
			n--
		}
	}
	for ; n > 0; n-- {
		active := 0
		var victim *replica
		for _, rep := range f.replicas {
			if rep.state != replicaActive || rep.down || rep.ejected {
				// Dark and ejected replicas cannot drain (their engines do
				// not step); the health tier owns their fate.
				continue
			}
			active++
			if victim == nil || rep.remaining() < victim.remaining() ||
				(rep.remaining() == victim.remaining() && rep.id > victim.id) {
				victim = rep
			}
		}
		if active <= 1 {
			return
		}
		victim.drainAt, victim.drained = now, true
		f.scaleDowns++
		f.bal.Event(now, obs.EvScaleDown, obs.NoRequest, victim.engine.cfg.Name)
		if victim.engine.finished() {
			victim.state = replicaRetired
			victim.retireAt = now
		} else {
			victim.state = replicaDraining
		}
	}
}

// finish retires surviving replicas at the run's makespan, appends their
// lifetimes to lives, and returns the fleet's replica-seconds: the sum
// of provisioned lifetimes, which equals the integral of fleet size over
// time by construction (each replica contributes retire-spawn). Every
// lifetime is clamped to the makespan so billing ends at the same
// instant for every policy: a replica shed at a post-makespan drain tick
// must not be billed longer than one that was simply kept.
func (f *fleetState) finish(makespan time.Duration, lives []ReplicaLife) ([]ReplicaLife, float64) {
	seconds := 0.0
	for _, rep := range f.replicas {
		if rep.state != replicaRetired {
			rep.state = replicaRetired
			rep.retireAt = makespan
		}
		rep.retireAt = max(min(rep.retireAt, makespan), rep.spawnAt)
		lives = append(lives, ReplicaLife{
			Name: rep.engine.cfg.Name, SpawnAt: rep.spawnAt, ReadyAt: rep.readyAt,
			RetireAt: rep.retireAt, Drained: rep.drained,
			AssignedRequests: rep.assignedReqs,
		})
		seconds += (rep.retireAt - rep.spawnAt).Seconds()
	}
	return lives, seconds
}
