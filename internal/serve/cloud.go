package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the cost-tiered serving subsystem: an elastic
// pay-per-token cloud backend (rigrun-style API overflow) attachable to
// a Cluster or Geo as the third escape hatch next to shedding and
// cross-region spill. The cloud has no KV or batching model — it is
// somebody else's fleet — just its own latency law (base + per-token),
// a token-bucket rate limit, an optional concurrency cap, and
// unbounded-but-priced capacity. Three decision points consult it:
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
	// Concurrency caps simultaneously in-flight cloud requests; a
	// dispatch past the cap waits for the oldest in-flight completion.
	// 0 means unbounded.
	Concurrency int
	// RateLimit is the provider-side token-bucket refill in tokens/sec;
	// a dispatch overdrawing the bucket is delayed until the deficit
	// refills. 0 means unlimited.
	RateLimit float64
	// Burst is the token bucket's capacity in tokens. 0 with a RateLimit
	// defaults to one second of refill (= RateLimit tokens).
	Burst int
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
		return fmt.Errorf("serve: cloud base latency %v negative", c.BaseLatency)
	case c.PerToken < 0:
		return fmt.Errorf("serve: cloud per-token latency %v negative", c.PerToken)
	case c.PricePerMToken < 0:
		return fmt.Errorf("serve: cloud price %v $/Mtoken negative", c.PricePerMToken)
	case c.Concurrency < 0:
		return fmt.Errorf("serve: cloud concurrency %d negative", c.Concurrency)
	case c.RateLimit < 0:
		return fmt.Errorf("serve: cloud rate limit %v tok/s negative", c.RateLimit)
	case c.Burst < 0:
		return fmt.Errorf("serve: cloud burst %d negative", c.Burst)
	case c.MaxSpend < 0:
		return fmt.Errorf("serve: cloud budget %v negative", c.MaxSpend)
	case c.DollarsPerReplicaHour < 0:
		return fmt.Errorf("serve: replica-hour price %v negative", c.DollarsPerReplicaHour)
	case c.FailEvery < 0:
		return fmt.Errorf("serve: cloud fail-every %d negative", c.FailEvery)
	}
	return nil
}

// burstTokens resolves the bucket capacity (see CloudConfig.Burst).
func (c *CloudConfig) burstTokens() float64 {
	if c.Burst > 0 {
		return float64(c.Burst)
	}
	return c.RateLimit
}

// CloudView is what a cloud-aware router sees about the backend at a
// routing instant: the latency a dispatch right now would pay and
// whether the budget still allows buying.
type CloudView struct {
	// ProjectedWait is the rate-limit/concurrency delay a dispatch at
	// the view instant would wait before its BaseLatency starts.
	ProjectedWait time.Duration
	BaseLatency   time.Duration
	PerToken      time.Duration
	// PricePerMToken echoes the configured price for cost-aware policies.
	PricePerMToken float64
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
	RouteCloud(r workload.Request, origin int, regions []RegionView, cloud CloudView) bool
}

// cloudTier is the per-run state of a CloudConfig: the token bucket,
// the in-flight window, the ledger, and the synthetic metrics of the
// requests it served. Only the controller mutates it (arrival routing,
// controller events, staged-shed drains). All methods are nil-safe.
type cloudTier struct {
	cfg   CloudConfig
	burst float64

	// Token bucket (RateLimit > 0): balance may go negative — the
	// overdraft is the deficit a dispatch waits out. lastRefill only
	// moves forward so out-of-order offer times (post-run shed drains)
	// cannot refill twice.
	tokens     float64
	lastRefill time.Duration

	// inflight holds the completion times of in-flight cloud requests,
	// ascending (Concurrency > 0 only).
	inflight []time.Duration

	spend        float64
	requests     int
	tokensServed int
	throttled    int
	attempts     int

	served []RequestMetrics

	// bal is the tier's obs track (nil when tracing is off).
	bal *obs.Stream
}

func newCloudTier(cfg *CloudConfig) *cloudTier {
	if cfg == nil {
		return nil
	}
	burst := cfg.burstTokens()
	return &cloudTier{cfg: *cfg, burst: burst, tokens: burst}
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
	v := CloudView{
		BaseLatency:    ct.cfg.BaseLatency,
		PerToken:       ct.cfg.PerToken,
		PricePerMToken: ct.cfg.PricePerMToken,
	}
	if ct.cfg.MaxSpend > 0 && ct.spend >= ct.cfg.MaxSpend {
		v.BudgetExhausted = true
	}
	var wait time.Duration
	if ct.cfg.RateLimit > 0 {
		tokens := ct.tokens
		if now > ct.lastRefill {
			tokens += ct.cfg.RateLimit * (now - ct.lastRefill).Seconds()
			if tokens > ct.burst {
				tokens = ct.burst
			}
		}
		if tokens < 0 {
			wait = time.Duration(-tokens / ct.cfg.RateLimit * float64(time.Second))
		}
	}
	if c := ct.cfg.Concurrency; c > 0 && len(ct.inflight) >= c {
		start := now + wait
		if at := ct.inflight[len(ct.inflight)-c]; at > start {
			wait = at - now
		}
	}
	v.ProjectedWait = wait
	return v
}

// admitDelay charges one dispatch of need tokens at now against the
// rate limit and the concurrency cap, returning how long the dispatch
// waits before its BaseLatency starts.
func (ct *cloudTier) admitDelay(now time.Duration, need float64) time.Duration {
	var wait time.Duration
	if ct.cfg.RateLimit > 0 {
		if now > ct.lastRefill {
			ct.tokens += ct.cfg.RateLimit * (now - ct.lastRefill).Seconds()
			if ct.tokens > ct.burst {
				ct.tokens = ct.burst
			}
			ct.lastRefill = now
		}
		ct.tokens -= need
		if ct.tokens < 0 {
			wait = time.Duration(-ct.tokens / ct.cfg.RateLimit * float64(time.Second))
		}
	}
	if c := ct.cfg.Concurrency; c > 0 {
		start := now + wait
		// Drop completions that finished by the dispatch start.
		i := 0
		for i < len(ct.inflight) && ct.inflight[i] <= start {
			i++
		}
		ct.inflight = append(ct.inflight[:0], ct.inflight[i:]...)
		if len(ct.inflight) >= c {
			if at := ct.inflight[len(ct.inflight)-c]; at > start {
				wait = at - now
			}
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
		ct.throttled++
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "budget")
		return false
	}
	ct.attempts++
	if fe := ct.cfg.FailEvery; fe > 0 && ct.attempts%fe == 0 {
		ct.throttled++
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "fail")
		return false
	}
	wait := ct.admitDelay(now, float64(r.TotalTokens()))
	if wait > 0 {
		ct.throttled++
		ct.bal.Event(now, obs.EvCloudThrottle, r.ID, "rate")
	}
	firstTok := now + wait + ct.cfg.BaseLatency
	done := firstTok
	if r.OutputTokens > 1 {
		done += ct.cfg.PerToken * time.Duration(r.OutputTokens-1)
	}
	if ct.cfg.Concurrency > 0 {
		i := sort.Search(len(ct.inflight), func(j int) bool { return ct.inflight[j] > done })
		ct.inflight = append(ct.inflight, 0)
		copy(ct.inflight[i+1:], ct.inflight[i:])
		ct.inflight[i] = done
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
	r.CloudThrottled = ct.throttled
	r.OwnedSpend = ct.cfg.DollarsPerReplicaHour / 3600 * r.ReplicaSeconds
	r.TotalSpend = r.OwnedSpend + r.CloudSpend
}

// --- Cloud overflow replica router ---

// CloudOverflowRouter wraps a local routing policy with the rent-vs-wait
// break-even: when the least-loaded routable replica's projected wait
// exceeds the cloud's current first-token latency (and budget remains),
// the request is served by the cloud; otherwise it routes locally via
// Inner. A fresh fleet has zero projected wait and never overflows, so
// the policy is strictly an escape valve.
//
// The policy is deliberately NOT in builtinRouters/RouterNames — the
// cluster-routing scenario sweeps RouterNames over cloudless fleets
// (where overflow degrades to its Inner policy but would still add
// pinned bench rows); NewRouter still constructs it by name.
type CloudOverflowRouter struct {
	// Inner places requests that stay local; nil uses live-least-loaded.
	Inner Router
	// PriorRate floors the per-replica serving-rate estimate (tokens/sec)
	// for the projected-wait calculation, mirroring SpillOverRouter's
	// prior. 0 means DefaultCloudPriorRate.
	PriorRate float64
}

// DefaultCloudPriorRate is CloudOverflowRouter's serving-rate prior,
// matching SpillOverRouter's single-replica saturated-throughput floor.
const DefaultCloudPriorRate = 5000

// NewCloudOverflowRouter returns the overflow policy with its defaults.
func NewCloudOverflowRouter() *CloudOverflowRouter { return &CloudOverflowRouter{} }

// Name implements Router.
func (*CloudOverflowRouter) Name() string { return "cloud-overflow" }

func (c *CloudOverflowRouter) inner() Router {
	if c.Inner == nil {
		c.Inner = NewLiveLeastLoadedRouter()
	}
	return c.Inner
}

// Route implements Router: local placement delegates to Inner.
func (c *CloudOverflowRouter) Route(r workload.Request, replicas []ReplicaView) int {
	return c.inner().Route(r, replicas)
}

func (c *CloudOverflowRouter) reset() {
	if rr, ok := c.inner().(resettable); ok {
		rr.reset()
	}
}

// RouteCloud implements CloudAwareRouter: overflow when every replica's
// projected wait (live backlog over the rate prior, breaker-open
// replicas skipped) beats the cloud's projected first-token latency.
func (c *CloudOverflowRouter) RouteCloud(_ workload.Request, replicas []ReplicaView, cloud CloudView) bool {
	if cloud.BudgetExhausted {
		return false
	}
	rate := c.PriorRate
	if rate <= 0 {
		rate = DefaultCloudPriorRate
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
	return float64(minLoad)/rate > cloud.Latency().Seconds()
}

// --- shed-or-buy staging ---

// cloudShedEntry is one waiter the shed-or-buy policy pulled from the
// queue, staged for the controller's cloud offer (see Engine.takeCloudShed).
type cloudShedEntry struct {
	s  *seq
	at time.Duration
}
