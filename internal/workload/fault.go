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
	switch {
	case r.BackoffBase < 0:
		return fmt.Errorf("workload: RetryPolicy.BackoffBase %v is negative", r.BackoffBase)
	case r.BackoffCap < 0:
		return fmt.Errorf("workload: RetryPolicy.BackoffCap %v is negative", r.BackoffCap)
	case r.Cap() < r.Base():
		return fmt.Errorf("workload: RetryPolicy.BackoffCap %v is below the backoff base %v", r.Cap(), r.Base())
	case r.Jitter < 0 || r.Jitter > 1:
		return fmt.Errorf("workload: RetryPolicy.Jitter %v is outside [0, 1]", r.Jitter)
	case r.BudgetRatio < 0:
		return fmt.Errorf("workload: RetryPolicy.BudgetRatio %v is negative", r.BudgetRatio)
	case r.BudgetBurst < 0:
		return fmt.Errorf("workload: RetryPolicy.BudgetBurst %d is negative", r.BudgetBurst)
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
		switch {
		case c.Replica < 0:
			return fmt.Errorf("workload: FaultPlan.Crashes[%d].Replica %d is negative", i, c.Replica)
		case c.At < 0:
			return fmt.Errorf("workload: FaultPlan.Crashes[%d].At %v is negative", i, c.At)
		case c.Restart != 0 && c.Restart <= c.At:
			return fmt.Errorf("workload: FaultPlan.Crashes[%d].Restart %v is not after the crash at %v", i, c.Restart, c.At)
		}
	}
	for i, o := range p.Outages {
		switch {
		case o.Start < 0:
			return fmt.Errorf("workload: FaultPlan.Outages[%d].Start %v is negative", i, o.Start)
		case o.End <= o.Start:
			return fmt.Errorf("workload: FaultPlan.Outages[%d].End %v is not after Start %v", i, o.End, o.Start)
		}
	}
	for i, d := range p.Degrades {
		switch {
		case d.Replica < 0:
			return fmt.Errorf("workload: FaultPlan.Degrades[%d].Replica %d is negative", i, d.Replica)
		case d.Start < 0:
			return fmt.Errorf("workload: FaultPlan.Degrades[%d].Start %v is negative", i, d.Start)
		case d.End <= d.Start:
			return fmt.Errorf("workload: FaultPlan.Degrades[%d].End %v is not after Start %v", i, d.End, d.Start)
		case d.Slowdown < 1:
			return fmt.Errorf("workload: FaultPlan.Degrades[%d].Slowdown %v is below 1", i, d.Slowdown)
		}
	}
	return p.Retry.Validate()
}
