package workload

import (
	"fmt"
	"time"
)

// DefaultMaxRetries bounds how many times a request lost to a replica
// crash is re-submitted before it is dropped with a named rejection.
const DefaultMaxRetries = 3

// NoRetries is the explicit MaxRetries setting for "drop on first
// loss": any negative value means zero retries, because the zero value
// of FaultPlan.MaxRetries keeps meaning DefaultMaxRetries.
const NoRetries = -1

// Retry-discipline defaults (see RetryPolicy).
const (
	DefaultRetryBackoffBase = 250 * time.Millisecond
	DefaultRetryBackoffCap  = 8 * time.Second
	DefaultRetryBudgetBurst = 10
)

// RetryPolicy shapes how crash/outage-lost requests are re-submitted.
// A nil policy keeps the legacy discipline — immediate re-arrival with
// no budget — byte-identical. With a policy set, each retry waits an
// exponentially growing backoff before re-entering the router, and an
// optional fleet-level token bucket caps total retries to a fraction
// of recent admissions (the anti-retry-storm budget).
type RetryPolicy struct {
	// BackoffBase is the delay before a request's first re-submission;
	// each further retry of the same request doubles it. Zero means
	// DefaultRetryBackoffBase.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. Zero means
	// DefaultRetryBackoffCap.
	BackoffCap time.Duration
	// Jitter in [0, 1] spreads each delay uniformly over
	// [delay*(1-Jitter), delay] from a deterministic seeded stream, so
	// a mass crash's refugees de-synchronize instead of thundering back
	// in one herd. Zero disables jitter.
	Jitter float64
	// Seed seeds the jitter stream; runs with equal seeds and equal
	// fault timing replay identical delays.
	Seed uint64
	// BudgetRatio, when positive, enables the retry budget: every fresh
	// admission adds Ratio tokens to a bucket and every retry spends
	// one, so sustained retries cannot exceed Ratio of the admission
	// rate (e.g. 0.1 = retries at most 10% of recent admissions). At an
	// empty bucket the retry drops instead of re-submitting. Zero
	// disables the budget.
	BudgetRatio float64
	// BudgetBurst is the bucket's capacity and starting level; zero
	// means DefaultRetryBudgetBurst (only consulted when BudgetRatio is
	// set).
	BudgetBurst int
}

// Base returns the effective backoff base.
func (r *RetryPolicy) Base() time.Duration {
	if r == nil || r.BackoffBase == 0 {
		return DefaultRetryBackoffBase
	}
	return r.BackoffBase
}

// Cap returns the effective backoff cap.
func (r *RetryPolicy) Cap() time.Duration {
	if r == nil || r.BackoffCap == 0 {
		return DefaultRetryBackoffCap
	}
	return r.BackoffCap
}

// Burst returns the effective budget burst.
func (r *RetryPolicy) Burst() int {
	if r == nil || r.BudgetBurst == 0 {
		return DefaultRetryBudgetBurst
	}
	return r.BudgetBurst
}

// Validate checks the policy's internal consistency.
func (r *RetryPolicy) Validate() error {
	if r == nil {
		return nil
	}
	if r.BackoffBase < 0 || r.BackoffCap < 0 {
		return fmt.Errorf("workload: retry backoff durations must be non-negative")
	}
	if base, cp := r.Base(), r.Cap(); cp < base {
		return fmt.Errorf("workload: retry backoff cap %v below base %v", cp, base)
	}
	if r.Jitter < 0 || r.Jitter > 1 {
		return fmt.Errorf("workload: retry jitter %.2f outside [0, 1]", r.Jitter)
	}
	if r.BudgetRatio < 0 {
		return fmt.Errorf("workload: retry budget ratio %.2f is negative", r.BudgetRatio)
	}
	if r.BudgetBurst < 0 {
		return fmt.Errorf("workload: retry budget burst %d is negative", r.BudgetBurst)
	}
	return nil
}

// ReplicaCrash kills one replica at time At. Everything in flight on
// the replica — queued, running, and already-routed-but-unarrived
// requests — is lost and re-enqueued at the origin router with an
// incremented retry count. Replica identifies the victim by spawn
// order (0-based: the initial fleet first, then autoscaler spawns, in
// order). Restart, when positive, is the absolute time the machine
// comes back; zero means it never does.
type ReplicaCrash struct {
	Replica int
	// Region names the region whose fleet the crash applies to. Empty
	// matches the cluster tier or the first (home) region of a geo run.
	Region  string
	At      time.Duration
	Restart time.Duration
}

// RegionOutage darkens a whole region for [Start, End): every live
// replica crashes at Start, replicas spawned during the window start
// dark, and the fleet recovers at End through the normal health-probe
// readmission path.
type RegionOutage struct {
	Region string
	Start  time.Duration
	End    time.Duration
}

// Degrade runs one replica at a Slowdown factor (>= 1) during
// [Start, End) — a sick-but-alive machine: it keeps serving, just
// slower, so only live-state routing can see it.
type Degrade struct {
	Replica  int
	Region   string
	Start    time.Duration
	End      time.Duration
	Slowdown float64
}

// FaultPlan schedules failures against a serving run. The zero value
// injects nothing. Plans are interpreted by the serve tier's fault
// controller; all timing is absolute trace time.
type FaultPlan struct {
	Crashes  []ReplicaCrash
	Outages  []RegionOutage
	Degrades []Degrade
	// MaxRetries bounds re-submission of crash-lost requests; zero
	// means DefaultMaxRetries, negative (NoRetries) means none.
	MaxRetries int
	// Retry shapes re-submission timing and volume; nil keeps the
	// legacy immediate-unbudgeted discipline.
	Retry *RetryPolicy
}

// Retries returns the effective retry bound: zero means
// DefaultMaxRetries, negative (NoRetries) means no retries at all.
func (p *FaultPlan) Retries() int {
	switch {
	case p == nil || p.MaxRetries == 0:
		return DefaultMaxRetries
	case p.MaxRetries < 0:
		return 0
	}
	return p.MaxRetries
}

// Validate checks the plan's internal consistency.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for i, c := range p.Crashes {
		if c.Replica < 0 {
			return fmt.Errorf("workload: crash %d has negative replica index", i)
		}
		if c.At < 0 {
			return fmt.Errorf("workload: crash %d has negative time", i)
		}
		if c.Restart != 0 && c.Restart <= c.At {
			return fmt.Errorf("workload: crash %d restarts at %v, not after the crash at %v", i, c.Restart, c.At)
		}
	}
	for i, o := range p.Outages {
		if o.Start < 0 || o.End <= o.Start {
			return fmt.Errorf("workload: outage %d window [%v, %v) is not a positive interval", i, o.Start, o.End)
		}
	}
	for i, d := range p.Degrades {
		if d.Replica < 0 {
			return fmt.Errorf("workload: degrade %d has negative replica index", i)
		}
		if d.Start < 0 || d.End <= d.Start {
			return fmt.Errorf("workload: degrade %d window [%v, %v) is not a positive interval", i, d.Start, d.End)
		}
		if d.Slowdown < 1 {
			return fmt.Errorf("workload: degrade %d slowdown %.2f < 1", i, d.Slowdown)
		}
	}
	return p.Retry.Validate()
}
