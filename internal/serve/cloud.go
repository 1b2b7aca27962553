package serve

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the cost-tiered serving subsystem: an elastic
// pay-per-token cloud backend (rigrun-style API overflow) attachable to
// a Cluster or Geo as the third escape hatch next to shedding and
// cross-region spill. The cloud has no KV or batching model — it is
// somebody else's fleet — just its own latency law (base + per-token),
// a token-bucket rate limit, and unbounded-but-priced capacity. Three
// decision points consult it:
//
//  1. Routing: the cloud-overflow replica router (and the spill-over
//     geo router's extension) compares the projected local wait —
//     backlog over serving rate, plus any cold start relief would pay —
//     against the cloud's current latency, and diverts when renting is
//     faster, within the MaxSpend budget.
//  2. Admission: the shed-or-buy policy offloads waiters that are
//     provably going to miss their TTFT deadline to the cloud instead
//     of rejecting them, while budget remains.
//  3. Accounting: every run reports OwnedSpend (replica-seconds at
//     $/replica-hour) next to CloudSpend ($/Mtoken bought), so the
//     autoscaler question — does owning the next replica beat renting
//     overflow? — is answerable per row.
//
// Like Faults, SharedCache, and Breakers, the tier is nil-gated: a nil
// CloudConfig keeps every legacy path byte-identical.

// CloudReplica is the Replica name stamped on requests the cloud
// backend served: they never reached an owned engine.
const CloudReplica = "cloud"

// CloudConfig describes the elastic pay-per-token backend.
type CloudConfig struct {
	// BaseLatency is the fixed time from dispatch to first token (queue,
	// network, and remote prefill folded into one constant); PerToken is
	// the remote inter-token streaming interval, so a dispatched request
	// completes after BaseLatency + PerToken*(out-1) plus any rate wait.
	BaseLatency time.Duration
	PerToken    time.Duration
	// PricePerMToken is the dollar price per million tokens (input +
	// output billed alike, the common flat API rate).
	PricePerMToken float64
	// RateLimit is the provider-side token-bucket refill in tokens/sec;
	// the bucket holds one second of refill (RateLimit tokens), and a
	// dispatch overdrawing it is delayed until the deficit refills. 0
	// means unlimited.
	RateLimit float64
	// MaxSpend is the run's cloud budget in dollars: a dispatch that
	// would push cumulative spend past it is refused (the MaxCloudSpend
	// knob of the overflow break-even). 0 means unlimited.
	MaxSpend float64
	// DollarsPerReplicaHour prices the owned fleet for the run's
	// OwnedSpend/TotalSpend accounting (0 leaves OwnedSpend at zero —
	// the cloud side of the ledger still fills).
	DollarsPerReplicaHour float64
	// FailEvery injects deterministic transient cloud failures: every
	// Nth dispatch attempt fails (after budget and before billing). The
	// failed request falls back to local serving. 0 disables.
	FailEvery int
}

func (c *CloudConfig) validate() error {
	if c == nil {
		return nil
	}
	switch {
	case c.BaseLatency < 0:
		return fmt.Errorf("serve: CloudConfig.BaseLatency %v is negative", c.BaseLatency)
	case c.PerToken < 0:
		return fmt.Errorf("serve: CloudConfig.PerToken %v is negative", c.PerToken)
	case c.PricePerMToken < 0:
		return fmt.Errorf("serve: CloudConfig.PricePerMToken %v is negative", c.PricePerMToken)
	case c.RateLimit < 0:
		return fmt.Errorf("serve: CloudConfig.RateLimit %v is negative", c.RateLimit)
	case c.MaxSpend < 0:
		return fmt.Errorf("serve: CloudConfig.MaxSpend %v is negative", c.MaxSpend)
	case c.DollarsPerReplicaHour < 0:
		return fmt.Errorf("serve: CloudConfig.DollarsPerReplicaHour %v is negative", c.DollarsPerReplicaHour)
	case c.FailEvery < 0:
		return fmt.Errorf("serve: CloudConfig.FailEvery %d is negative", c.FailEvery)
	}
	return nil
}

// CloudView is what a cloud-aware router sees about the backend at a
// routing instant: the latency a dispatch right now would pay and
// whether the budget still allows buying.
type CloudView struct {
	// ProjectedWait is the rate-limit delay a dispatch at the view
	// instant would wait before its BaseLatency starts.
	ProjectedWait time.Duration
	BaseLatency   time.Duration
	// BudgetExhausted marks a tier whose cumulative spend has reached
	// MaxSpend: routers must not divert to it.
	BudgetExhausted bool
}

// Latency is the view's projected time to first cloud token.
func (v CloudView) Latency() time.Duration { return v.ProjectedWait + v.BaseLatency }

// CloudAwareRouter extends Router with the overflow decision: RouteCloud
// reports whether the request should be served by the cloud backend
// instead of any local replica. It is consulted only when a cloud tier
// is attached; plain routers never see the cloud.
type CloudAwareRouter interface {
	Router
	RouteCloud(r workload.Request, replicas []ReplicaView, cloud CloudView) bool
}

// CloudAwareGeoRouter is the geo tier's version of the same extension:
// the decision weighs every region (local wait, RTT, cold start)
// against the cloud's latency.
type CloudAwareGeoRouter interface {
	GeoRouter
	// RouteCloud reports whether r goes to the cloud. The regions slice
	// is reused across calls, so a router must not keep it.
	RouteCloud(r workload.Request, origin int, regions []RegionView, cloud CloudView) bool
}

// cloudTier is the per-run state of a CloudConfig: the token bucket,
// the ledger, and the synthetic metrics of the requests it served. Only
// the controller mutates it (arrival routing, controller events,
// staged-shed drains). All methods are nil-safe.
type cloudTier struct {
	cfg CloudConfig

	// Token bucket (RateLimit > 0, capacity RateLimit): balance may go
	// negative — the overdraft is the deficit a dispatch waits out.
	// lastRefill only moves forward so out-of-order offer times (post-run
	// shed drains) cannot refill twice.
	tokens     float64
	lastRefill time.Duration

	spend        float64
	requests     int
	tokensServed int
	attempts     int

	served []RequestMetrics

	// bal is the tier's obs track (nil when tracing is off).
	bal *obs.Stream
}

func newCloudTier(cfg *CloudConfig) *cloudTier {
	if cfg == nil {
		return nil
	}
	return &cloudTier{cfg: *cfg, tokens: cfg.RateLimit}
}

// observe registers the tier's obs track. Serial setup path only.
func (ct *cloudTier) observe(o *obs.Observer, region string) {
	if ct == nil {
		return
	}
	ct.bal = o.Stream(region, "cloud")
}

// view snapshots the tier for a routing decision without mutating it.
func (ct *cloudTier) view(now time.Duration) CloudView {
	v := CloudView{BaseLatency: ct.cfg.BaseLatency}
	if ct.cfg.MaxSpend > 0 && ct.spend >= ct.cfg.MaxSpend {
		v.BudgetExhausted = true
	}
	_, v.ProjectedWait = ct.project(now, 0)
	return v
}

// project prices one dispatch of need tokens at now without mutating
// the tier: the bucket balance after refilling to now and drawing need,
// and the overdraft's refill time, which the dispatch waits before its
// BaseLatency starts.
func (ct *cloudTier) project(now time.Duration, need float64) (tokens float64, wait time.Duration) {
	if ct.cfg.RateLimit > 0 {
		tokens = ct.tokens
		if now > ct.lastRefill {
			tokens += ct.cfg.RateLimit * (now - ct.lastRefill).Seconds()
			if tokens > ct.cfg.RateLimit {
				tokens = ct.cfg.RateLimit
			}
		}
		tokens -= need
		if tokens < 0 {
			wait = time.Duration(-tokens / ct.cfg.RateLimit * float64(time.Second))
		}
	}
	return tokens, wait
}

// admitDelay charges one dispatch of need tokens at now against the
// rate limit, committing project's bucket balance, and returns how long
// the dispatch waits before its BaseLatency starts.
func (ct *cloudTier) admitDelay(now time.Duration, need float64) time.Duration {
	tokens, wait := ct.project(now, need)
	if ct.cfg.RateLimit > 0 {
		ct.tokens = tokens
		if now > ct.lastRefill {
			ct.lastRefill = now
		}
	}
	return wait
}

// offer dispatches one request to the cloud at now, reporting whether
// the cloud accepted it. policy labels the deciding mechanism in the obs
// event ("overflow", "shed-or-buy", "geo-overflow"). An accepted request
// is fully served: its synthetic metrics (TTFT/Completion measured from
// the original submission, Replica == CloudReplica) are recorded and the
// price charged, and the caller must not serve it locally. A budget
// refusal or an injected transient failure leaves the request to the
// caller's local path. Serial paths only; nil-safe (a nil tier refuses).
func (ct *cloudTier) offer(r workload.Request, now time.Duration, policy string) bool {
	if ct == nil {
		return false
	}
	price := ct.cfg.PricePerMToken * float64(r.TotalTokens()) / 1e6
	if ct.cfg.MaxSpend > 0 && ct.spend+price > ct.cfg.MaxSpend {
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "budget")
		return false
	}
	ct.attempts++
	if fe := ct.cfg.FailEvery; fe > 0 && ct.attempts%fe == 0 {
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "fail")
		return false
	}
	wait := ct.admitDelay(now, float64(r.TotalTokens()))
	if wait > 0 {
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "rate")
	}
	firstTok := now + wait + ct.cfg.BaseLatency
	done := firstTok
	if r.OutputTokens > 1 {
		done += ct.cfg.PerToken * time.Duration(r.OutputTokens-1)
	}
	ct.spend += price
	ct.requests++
	ct.tokensServed += r.TotalTokens()
	ct.served = append(ct.served, servedRow(r, CloudReplica, firstTok, done))
	ct.bal.Event(now, obs.EvCloudRoute, r.ID, policy)
	return true
}

// metricsList returns the synthetic metrics of cloud-served requests,
// in dispatch order (nil-safe).
func (ct *cloudTier) metricsList() []RequestMetrics {
	if ct == nil {
		return nil
	}
	return ct.served
}

// fill copies the ledger onto the result. Must run after the run's
// ReplicaSeconds is final (after the controller's per-region
// accounting), so OwnedSpend prices the real fleet time.
func (ct *cloudTier) fill(r *Result) {
	if ct == nil {
		return
	}
	r.CloudRequests = ct.requests
	r.CloudTokens = ct.tokensServed
	r.CloudSpend = ct.spend
	r.OwnedSpend = ct.cfg.DollarsPerReplicaHour / 3600 * r.ReplicaSeconds
	r.TotalSpend = r.OwnedSpend + r.CloudSpend
}

// --- Cloud overflow replica router ---

// priorRate is the per-replica serving rate (tokens/sec) the
// cloud-overflow and spill-over policies project waits with: a
// single-GPU Llama-70B replica's measured peak on ~1k-token interactive
// requests. Spill-over takes the larger of it and the measured rate,
// which integrates idle time and so only ever underestimates capacity.
const priorRate = 5000

// cloudOverflowRouter wraps live-least-loaded routing with the
// rent-vs-wait break-even: when the least-loaded routable replica's
// projected wait exceeds the cloud's current first-token latency (and
// budget remains), the request is served by the cloud; otherwise it
// routes locally. A fresh fleet has zero projected wait and never
// overflows, so the policy is strictly an escape valve.
//
// The policy is deliberately NOT in builtinRouters/RouterNames — the
// cluster-routing scenario sweeps RouterNames over cloudless fleets
// (where overflow degrades to live-least-loaded but would still add
// pinned bench rows); NewRouter still constructs it by name.
type cloudOverflowRouter struct{ liveLeastLoaded }

// NewCloudOverflowRouter returns the overflow policy.
func NewCloudOverflowRouter() Router { return cloudOverflowRouter{} }

func (cloudOverflowRouter) Name() string { return "cloud-overflow" }

// RouteCloud implements CloudAwareRouter: overflow when every replica's
// projected wait (live backlog over priorRate, breaker-open replicas
// skipped) beats the cloud's projected first-token latency.
func (cloudOverflowRouter) RouteCloud(_ workload.Request, replicas []ReplicaView, cloud CloudView) bool {
	if cloud.BudgetExhausted {
		return false
	}
	minLoad := -1
	for _, v := range replicas {
		if v.BreakerOpen {
			continue
		}
		if minLoad < 0 || v.LiveTokens < minLoad {
			minLoad = v.LiveTokens
		}
	}
	if minLoad < 0 {
		// Every breaker open: the cloud is the escape hatch.
		return true
	}
	return float64(minLoad)/priorRate > cloud.Latency().Seconds()
}

// --- shed-or-buy staging ---

// cloudShedEntry is one waiter the shed-or-buy policy pulled from the
// queue, staged for the controller's cloud offer (see Engine.takeCloudShed).
type cloudShedEntry struct {
	s  *seq
	at time.Duration
}
