package serve

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The health tier is on whenever a FaultPlan is present. It probes
// every replica once per DefaultProbeInterval, ejects a dark one after
// DefaultFailThreshold consecutive failed probes, and readmits a
// recovered one DefaultHealthCooldown after its ejection — the
// rigrun-style ejection/readmission loop. The router keeps sending
// traffic to a crashed replica (a black hole) until it is ejected;
// ejection drains the black-holed requests back to the router for
// retry.
const (
	DefaultProbeInterval  = time.Second
	DefaultFailThreshold  = 3
	DefaultHealthCooldown = 10 * time.Second
)

// routable reports whether the router may place new work on the
// replica. A down-but-not-yet-ejected replica IS routable — the
// detection delay before the health tier ejects it is exactly the
// black-hole window real fleets suffer.
func (rep *replica) routable() bool {
	return rep.state == replicaActive && !rep.ejected
}

func (f *fleetState) routableCount() int {
	n := 0
	for _, rep := range f.replicas {
		if rep.routable() {
			n++
		}
	}
	return n
}

// canRecover reports whether any replica could rejoin the routing set
// without a new scale-up: a warming spawn, a machine with a scheduled
// restart, or an ejected-but-recovered replica waiting out its
// cooldown. When false with zero routable replicas, pending work can
// only be saved by the autoscaler spawning capacity.
func (f *fleetState) canRecover() bool {
	for _, rep := range f.replicas {
		switch rep.state {
		case replicaWarming:
			return true
		case replicaActive:
			if rep.down && rep.restartAt > 0 {
				return true
			}
			if rep.ejected && !rep.down {
				return true
			}
		}
	}
	return false
}

// crashReplica takes one replica down at now: all in-flight and
// routed work is lost and returned for re-submission, the machine
// stays dark until restartAt (0: forever), and the replica remains in
// the routing set — black-holing new arrivals — until the health tier
// ejects it. Crashing a draining replica retires it on the spot (its
// backlog is re-enqueued; there is nothing left to drain). No-op on
// an already-down or retired replica.
func (f *fleetState) crashReplica(rep *replica, now, restartAt time.Duration) []workload.Request {
	if rep == nil || rep.down || rep.state == replicaRetired {
		return nil
	}
	lost, lostTok := rep.engine.crashDrain()
	// Crash and per-request loss land on the replica's own track, at
	// controller time (the engine's clock may have overshot the event).
	rep.engine.stream.Event(now, obs.EvCrash, obs.NoRequest, "")
	for _, r := range lost {
		rep.engine.stream.Event(now, obs.EvLost, r.ID, "")
	}
	f.workLost += lostTok
	f.crashCount++
	if rep.breaker != nil && rep.breaker.trip(now) {
		// A crash is definitive failure evidence: trip the breaker
		// directly, no threshold.
		rep.engine.stream.Event(now, obs.EvBreakerOpen, obs.NoRequest, "crash")
	}
	rep.down = true
	rep.restartAt = restartAt
	rep.probeFails = 0
	if rep.state == replicaDraining {
		rep.state = replicaRetired
		rep.retireAt = now
	}
	return lost
}

// probeAll runs one health sweep over the fleet in replica-index
// order: restarts machines whose downtime elapsed, counts failed
// probes on dark ones (ejecting at the threshold and draining their
// black-holed arrivals, which are returned for re-submission), and
// readmits recovered replicas whose cooldown expired.
func (f *fleetState) probeAll(now time.Duration) []workload.Request {
	f.sync()
	var lost []workload.Request
	for _, rep := range f.replicas {
		if rep.state != replicaActive {
			continue
		}
		if rep.down && rep.restartAt > 0 && rep.restartAt <= now {
			rep.down = false
			rep.probeFails = 0
			if rep.engine.now < now {
				rep.engine.now = now
			}
			rep.engine.stream.Event(now, obs.EvRestart, obs.NoRequest, "")
		}
		if rep.down {
			rep.probeFails++
			if !rep.ejected && rep.probeFails >= DefaultFailThreshold {
				rep.ejected = true
				rep.ejectedAt = now
				f.ejections++
				drained, _ := rep.engine.crashDrain()
				rep.engine.stream.Event(now, obs.EvEject, obs.NoRequest, "")
				for _, r := range drained {
					rep.engine.stream.Event(now, obs.EvLost, r.ID, "")
				}
				lost = append(lost, drained...)
			}
			continue
		}
		rep.probeFails = 0
		if rep.ejected && now-rep.ejectedAt >= DefaultHealthCooldown {
			rep.ejected = false
			f.readmissions++
			f.relevel(rep)
			rep.engine.stream.Event(now, obs.EvReadmit, obs.NoRequest, "")
		}
	}
	return lost
}

// relevel re-levels a readmitted replica's cumulative router view with
// the least-loaded routable incumbent, like level does for a fresh
// spawn — but accounting for the lifetime work the replica already
// carries, so least-outstanding routing neither funnels everything at
// it nor shuns it forever.
func (f *fleetState) relevel(rep *replica) {
	first := true
	minTok := 0
	for _, other := range f.replicas {
		if other == rep || !other.routable() {
			continue
		}
		if lt := other.assignedTokens + other.tokenHandicap; first || lt < minTok {
			minTok = lt
		}
		first = false
	}
	if !first {
		rep.tokenHandicap = minTok - rep.assignedTokens
	}
}

// crashEvent is one scheduled fleet fault: a single-replica crash, or
// (outage=true) the whole fleet going dark until restart.
type crashEvent struct {
	at      time.Duration
	restart time.Duration
	replica int
	outage  bool
}

// applyCrashEvent fires one crash event against the fleet, returning
// the lost work. Outages crash every live replica (index order) with
// restartAt at the outage end and darken subsequent spawns until then.
func (f *fleetState) applyCrashEvent(ev crashEvent, now time.Duration) []workload.Request {
	f.sync()
	if !ev.outage {
		if ev.replica < 0 || ev.replica >= len(f.replicas) {
			return nil
		}
		return f.crashReplica(f.replicas[ev.replica], now, ev.restart)
	}
	if ev.restart > f.outageUntil {
		f.outageUntil = ev.restart
	}
	var lost []workload.Request
	for _, rep := range f.replicas {
		lost = append(lost, f.crashReplica(rep, now, ev.restart)...)
	}
	return lost
}

// Controller event kinds, in tie-break order at equal times: crashes
// land first (the failure happens), then probes (detection), then
// backoff releases (delayed reaction), then autoscaler evaluations.
const (
	evCrash = iota
	evProbe
	evRelease
	evEval
)

// delayedRetry is one backed-off request parked until its release time.
type delayedRetry struct {
	at  time.Duration
	seq int // park order; tie-break at equal release times
	req workload.Request
}

// retrier implements the controller-side retry discipline of a
// workload.RetryPolicy: exponential backoff with deterministic seeded
// jitter, and a token-bucket budget replenished by fresh admissions. A
// nil *retrier is the legacy path — immediate re-arrival, no budget —
// and every method is nil-receiver safe so call sites stay unguarded.
// Only the controller mutates its state.
type retrier struct {
	policy  workload.RetryPolicy
	base    time.Duration
	cap     time.Duration
	rng     *tensor.RNG // jitter stream; nil when Jitter == 0
	tokens  float64
	burst   float64
	delayed []delayedRetry
	seq     int
	// waited sums the backoff delay imposed across all retries
	// (Result.RetryBackoffWait).
	waited time.Duration
}

func newRetrier(p *workload.RetryPolicy) *retrier {
	if p == nil {
		return nil
	}
	rt := &retrier{policy: *p, base: p.Base(), cap: p.Cap()}
	if p.Jitter > 0 {
		rt.rng = tensor.NewRNG(p.Seed ^ 0x9e3779b97f4a7c15)
	}
	if p.BudgetRatio > 0 {
		rt.burst = float64(p.Burst())
		rt.tokens = rt.burst
	}
	return rt
}

// noteAdmission refills the budget for one fresh (non-retry) admission.
func (rt *retrier) noteAdmission() {
	if rt == nil || rt.policy.BudgetRatio <= 0 {
		return
	}
	rt.tokens += rt.policy.BudgetRatio
	if rt.tokens > rt.burst {
		rt.tokens = rt.burst
	}
}

// take spends one budget token; false means the budget is exhausted
// and the retry must drop instead of re-submitting.
func (rt *retrier) take() bool {
	if rt == nil || rt.policy.BudgetRatio <= 0 {
		return true
	}
	if rt.tokens < 1 {
		return false
	}
	rt.tokens--
	return true
}

// delay computes the backoff before retry attempt n (1-based):
// base·2^(n-1), capped, shrunk by up to Jitter of itself from the
// seeded stream.
func (rt *retrier) delay(attempt int) time.Duration {
	if rt == nil {
		return 0
	}
	d := rt.base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= rt.cap || d < 0 {
			d = rt.cap
			break
		}
	}
	if d > rt.cap {
		d = rt.cap
	}
	if rt.rng != nil {
		d = time.Duration(float64(d) * (1 - rt.policy.Jitter*rt.rng.Float64()))
	}
	return d
}

// park schedules a backed-off request for release at the given time.
func (rt *retrier) park(r workload.Request, at time.Duration) {
	rt.seq++
	rt.delayed = append(rt.delayed, delayedRetry{at: at, seq: rt.seq, req: r})
}

// pending counts parked retries (the drain loops must not exit while
// any remain).
func (rt *retrier) pending() int {
	if rt == nil {
		return 0
	}
	return len(rt.delayed)
}

// nextRelease returns the earliest scheduled release time.
func (rt *retrier) nextRelease() (time.Duration, bool) {
	if rt == nil || len(rt.delayed) == 0 {
		return 0, false
	}
	best := rt.delayed[0].at
	for _, d := range rt.delayed[1:] {
		if d.at < best {
			best = d.at
		}
	}
	return best, true
}

// takeDue removes and returns every parked retry due at or before now,
// ordered by (release time, park order).
func (rt *retrier) takeDue(now time.Duration) []workload.Request {
	if rt == nil || len(rt.delayed) == 0 {
		return nil
	}
	var due []delayedRetry
	kept := rt.delayed[:0]
	for _, d := range rt.delayed {
		if d.at <= now {
			due = append(due, d)
		} else {
			kept = append(kept, d)
		}
	}
	rt.delayed = kept
	slices.SortFunc(due, func(a, b delayedRetry) int {
		if d := cmp.Compare(a.at, b.at); d != 0 {
			return d
		}
		return cmp.Compare(a.seq, b.seq)
	})
	out := make([]workload.Request, len(due))
	for i, d := range due {
		out[i] = d.req
	}
	return out
}

// backoffWait reports the total backoff delay imposed.
func (rt *retrier) backoffWait() time.Duration {
	if rt == nil {
		return 0
	}
	return rt.waited
}
