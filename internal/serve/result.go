package serve

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/perf"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RequestMetrics is the per-request outcome of a simulation, in the
// paper's units: TTFT, TPOT, and completion time.
type RequestMetrics struct {
	ID           int
	Class        string
	Arrival      time.Duration
	InputTokens  int
	OutputTokens int
	// TTFT is arrival to first output token.
	TTFT time.Duration
	// TPOT is the mean time between subsequent output tokens.
	TPOT time.Duration
	// Completion is arrival to final token.
	Completion time.Duration
	// Preemptions counts recompute evictions suffered.
	Preemptions int
	// Retries counts crash re-submissions this request went through
	// before reaching its final outcome; Arrival/TTFT/Completion measure
	// from the original submission, so retries pay for the lost time.
	Retries int
	// Rejected marks requests the engine could never serve; RejectReason
	// names why (empty for served requests).
	Rejected     bool
	RejectReason RejectReason
	// Priority and SLO echo the request's scheduling inputs so results
	// can be audited per class.
	Priority int
	SLO      *workload.SLO
	// Replica names the engine that served (or rejected) the request,
	// so autoscaled runs can audit placement against replica lifetimes.
	Replica string
	// Origin and Region name the request's arrival region and the region
	// whose fleet served it; RTT is the inter-region round trip charged
	// on top of the served TTFT/Completion when they differ. All three
	// are zero-valued outside geo runs.
	Origin string
	Region string
	RTT    time.Duration
}

// TTFTMet reports whether the request met its TTFT deadline. A
// NoDeadline dimension can never be missed, not even by rejection;
// every finite deadline is missed when the request was rejected or
// carries no SLO.
func (m RequestMetrics) TTFTMet() bool {
	if m.SLO == nil {
		return false
	}
	if m.SLO.TTFT == workload.NoDeadline {
		return true
	}
	return !m.Rejected && m.TTFT <= m.SLO.TTFT
}

// TPOTMet reports whether the request met its TPOT deadline, with the
// same NoDeadline convention as TTFTMet. A single-token response has no
// inter-token interval, so it trivially meets any positive deadline —
// but a zero deadline stays always-missed.
func (m RequestMetrics) TPOTMet() bool {
	if m.SLO == nil {
		return false
	}
	if m.SLO.TPOT == workload.NoDeadline {
		return true
	}
	if m.Rejected {
		return false
	}
	if m.OutputTokens <= 1 {
		return m.SLO.TPOT > 0
	}
	return m.TPOT <= m.SLO.TPOT
}

// servedRow is the row of a request served with its first token at
// first and its last at done. TTFT and Completion measure from the
// original submission, so a retried request pays for the lost time.
func servedRow(r workload.Request, replica string, first, done time.Duration) RequestMetrics {
	sub := r.SubmittedAt()
	m := RequestMetrics{
		ID: r.ID, Class: r.Class, Arrival: sub,
		InputTokens: r.InputTokens, OutputTokens: r.OutputTokens,
		TTFT: first - sub, Completion: done - sub,
		Retries: r.Retries, Priority: r.Priority, SLO: r.SLO,
		Replica: replica, Origin: r.Origin,
	}
	if r.OutputTokens > 1 {
		m.TPOT = (done - first) / time.Duration(r.OutputTokens-1)
	}
	return m
}

// rejectedRow is the row of a request rejected for reason.
func rejectedRow(r workload.Request, replica string, reason RejectReason) RequestMetrics {
	return RequestMetrics{
		ID: r.ID, Class: r.Class, Arrival: r.SubmittedAt(),
		InputTokens: r.InputTokens, OutputTokens: r.OutputTokens,
		Rejected: true, RejectReason: reason,
		Retries: r.Retries, Priority: r.Priority, SLO: r.SLO,
		Replica: replica, Origin: r.Origin,
	}
}

// appendMetrics appends the engine's completed, then rejected, sequences
// to dst as RequestMetrics.
func (e *Engine) appendMetrics(dst []RequestMetrics) []RequestMetrics {
	for _, s := range e.completed {
		m := servedRow(s.req, e.cfg.Name, s.firstTok, s.finished)
		m.Preemptions = int(s.preempted)
		dst = append(dst, m)
	}
	for _, s := range e.rejected {
		dst = append(dst, rejectedRow(s.req, e.cfg.Name, s.rejectReason))
	}
	return dst
}

// outcomes is one consumer's read point over an engine's terminal
// lists. The autoscaler window, the replica breaker and the region
// breaker each keep their own, so each sees every completion and
// rejection once, at its own point in the controller's serial order.
type outcomes struct{ done, rej int }

// since returns the engine's completions and rejections past the read
// point and moves the read point to the ends of the lists. The slices
// alias the engine's lists.
func (o *outcomes) since(e *Engine) (done, rej []*seq) {
	done, rej = e.completed[o.done:], e.rejected[o.rej:]
	o.done, o.rej = len(e.completed), len(e.rejected)
	return done, rej
}

// Result aggregates a simulation run.
type Result struct {
	Name       string
	PerRequest []RequestMetrics

	TTFT       stats.Sample // milliseconds
	TPOT       stats.Sample // milliseconds
	Completion stats.Sample // milliseconds

	TotalTokens int
	Makespan    time.Duration
	Rejected    int
	// RejectedKVExhausted and RejectedUnservable split Rejected by cause:
	// admitted work whose KV growth exceeded the whole cache versus
	// prompts that could never fit. A shift between the two flags an
	// admission-control regression that the bare count would hide.
	RejectedKVExhausted int
	RejectedUnservable  int
	// RejectedCrashDropped counts requests the fault controller dropped
	// after losing them to crashes more than MaxRetries times.
	RejectedCrashDropped int
	// Shed counts requests cut by admission control before prefill (a
	// subset of Rejected, reason "shed"); ShedTokens their total
	// input+output tokens — capacity the shed freed for admitted work.
	Shed        int
	ShedTokens  int
	Preemptions int
	// SLOPreemptions counts evictions forced by at-risk TTFT deadlines
	// (a subset of Preemptions).
	SLOPreemptions int

	// Fault-injection accounting (all zero without a FaultPlan).
	// Retries totals crash re-submissions across requests;
	// WorkLostTokens counts computed tokens discarded by crashes;
	// ReplicaCrashes counts crash events applied (region outages count
	// one per replica they kill); Ejections and Readmissions count
	// health-tier transitions.
	Retries        int
	WorkLostTokens int
	ReplicaCrashes int
	Ejections      int
	Readmissions   int
	// Overload-tier accounting (all zero unless admission control,
	// retry backoff, or breakers are enabled). BreakerOpens totals
	// circuit-breaker open transitions (replica and region tracks);
	// RetryBackoffWait sums the deliberate delay retries spent parked
	// in backoff before re-entering the router.
	BreakerOpens     int
	RetryBackoffWait time.Duration

	// Measured-cache accounting (all zero unless Config.PrefixCache is
	// set on the engines). CacheHits+CacheMisses equals the number of
	// requests the engines admitted for prefill; CacheCachedTokens sums
	// the prompt tokens actually served from cache, so the measured
	// token share never exceeds the ShareFraction ceiling. ReplicaCaches
	// breaks the counters down per replica in fleet order.
	CacheHits         int
	CacheMisses       int
	CacheEvictions    int
	CacheCachedTokens int
	ReplicaCaches     []ReplicaCacheStats

	// Shared-tier accounting (all zero unless SharedCache is set on the
	// cluster or geo). SharedHits counts requests answered at the
	// balancer (their PerRequest rows carry Replica == SharedCacheReplica
	// and never reached an engine); SharedMisses counts keyed requests
	// that fell through to routing. Keyless requests are not counted.
	SharedHits   int
	SharedMisses int

	// Cloud-tier accounting (all zero unless Cloud is set on the cluster
	// or geo). CloudRequests/CloudTokens count work the elastic backend
	// served (their PerRequest rows carry Replica == CloudReplica and
	// never reached an engine); CloudSpend is their price at
	// PricePerMToken. OwnedSpend prices the owned fleet (ReplicaSeconds
	// at DollarsPerReplicaHour) and TotalSpend = OwnedSpend + CloudSpend —
	// the two sides of the own-vs-rent ledger.
	CloudRequests int
	CloudTokens   int
	CloudSpend    float64
	OwnedSpend    float64
	TotalSpend    float64

	// SLOByClass aggregates deadline attainment per request class, for
	// the classes that carried an SLO.
	SLOByClass map[string]*SLOAttainment

	// Iteration accounting (summed across engines).
	Iters      int
	BaseIters  int
	ShiftIters int
	Cost       perf.Cost

	// Fleet accounting. ReplicaSeconds integrates provisioned fleet size
	// over time (for a fixed fleet: replicas x makespan); Replicas lists
	// each replica's provisioned lifetime. Autoscaled runs additionally
	// fill the scale-event counters; the per-evaluation fleet
	// composition is the run's obs samples.
	ReplicaSeconds float64
	Replicas       []ReplicaLife
	ScaleUps       int
	ScaleDowns     int

	// RegionStats breaks a geo run down per region (nil outside geo
	// runs): request counts, spill-over flows, RTT-inflated TTFT, SLO
	// attainment, and replica-seconds, so cost stays comparable across
	// geo routing policies.
	RegionStats []RegionStats
}

// ReplicaCacheStats is one replica's measured prefix-cache outcome.
type ReplicaCacheStats struct {
	Name      string
	Hits      int
	Misses    int
	Evictions int
}

// MeasuredHitRate returns the fleet-wide measured prefix-cache hit rate
// (hits over admitted prefills), 0 when measurement was off.
func (r *Result) MeasuredHitRate() float64 {
	n := r.CacheHits + r.CacheMisses
	if n == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(n)
}

// SharedHitRate returns the shared tier's hit rate over the keyed
// requests it saw, 0 when the tier was off (or saw none).
func (r *Result) SharedHitRate() float64 {
	n := r.SharedHits + r.SharedMisses
	if n == 0 {
		return 0
	}
	return float64(r.SharedHits) / float64(n)
}

// RegionStats aggregates one region's share of a geo run. TTFT and SLO
// cover the requests this region's fleet served, with the inter-region
// RTT already added for spilled-in requests.
type RegionStats struct {
	Name string
	// OriginRequests counts requests that arrived in this region;
	// ServedRequests counts requests this region's fleet served or
	// rejected. SpillIn served here but arrived elsewhere; SpillOut
	// arrived here but served elsewhere.
	OriginRequests int
	ServedRequests int
	SpillIn        int
	SpillOut       int
	Rejected       int
	TTFT           stats.Sample // milliseconds, RTT-inflated
	SLO            SLOAttainment
	// Fleet accounting for this region's fleet alone.
	ReplicaSeconds float64
	ScaleUps       int
	ScaleDowns     int
	// Cloud split: overflow bought on behalf of this region's arrivals
	// (cloud rows bill to their origin region, like shared-cache hits).
	CloudRequests int
	CloudTokens   int
	CloudSpend    float64
}

// Spilled sums the requests a geo run served outside their origin region
// (zero outside geo runs).
func (r *Result) Spilled() int {
	n := 0
	for _, rs := range r.RegionStats {
		n += rs.SpillIn
	}
	return n
}

// ReplicaLife records one replica's provisioned lifetime: spawned at
// SpawnAt (billing starts), accepting work from ReadyAt (cold start
// elapsed), released at RetireAt. Drained marks replicas retired by a
// scale-down rather than end of run.
type ReplicaLife struct {
	Name     string
	SpawnAt  time.Duration
	ReadyAt  time.Duration
	RetireAt time.Duration
	Drained  bool
	// AssignedRequests counts requests routed to the replica over its
	// lifetime.
	AssignedRequests int
}

// SLOAttainment aggregates deadline outcomes for one request class.
// Rejected requests miss every finite deadline; NoDeadline dimensions
// are never missed.
type SLOAttainment struct {
	Requests int // finished requests that carried an SLO
	Rejected int // rejected requests that carried an SLO
	TTFTMet  int
	TPOTMet  int
}

// TTFTRate returns the fraction of the class's SLO'd requests that met
// their TTFT deadline (1 for an empty class: vacuously attained).
func (a *SLOAttainment) TTFTRate() float64 { return a.rate(a.TTFTMet) }

// TPOTRate returns the fraction that met their TPOT deadline.
func (a *SLOAttainment) TPOTRate() float64 { return a.rate(a.TPOTMet) }

// add tallies one request row; rows without an SLO are not counted.
func (a *SLOAttainment) add(m RequestMetrics) {
	if m.SLO == nil {
		return
	}
	if m.Rejected {
		a.Rejected++
	} else {
		a.Requests++
	}
	if m.TTFTMet() {
		a.TTFTMet++
	}
	if m.TPOTMet() {
		a.TPOTMet++
	}
}

func (a *SLOAttainment) rate(met int) float64 {
	total := a.Requests + a.Rejected
	if total == 0 {
		return 1
	}
	return float64(met) / float64(total)
}

// WindowAttainment pools SLO attainment over the requests whose Class
// begins with prefix (empty matches every class) and whose original
// submission fell inside [from, to) — the recovery-window view of a
// fault run: did the requests submitted while the fleet was broken
// still meet their deadlines?
func (r *Result) WindowAttainment(prefix string, from, to time.Duration) SLOAttainment {
	var a SLOAttainment
	for _, m := range r.PerRequest {
		if m.Arrival >= from && m.Arrival < to && strings.HasPrefix(m.Class, prefix) {
			a.add(m)
		}
	}
	return a
}

// Throughput returns combined tokens/second over the makespan.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.TotalTokens) / r.Makespan.Seconds()
}

// LoneLatency reads a lone-request run (workload.Single on one engine):
// its TTFT and TPOT with no queueing. It errors when the request was
// rejected.
func (r *Result) LoneLatency() (ttft, tpot time.Duration, err error) {
	if r.TTFT.N() == 0 {
		return 0, 0, fmt.Errorf("serve: single request was rejected")
	}
	ttft = time.Duration(r.TTFT.Mean() * float64(time.Millisecond))
	tpot = time.Duration(r.TPOT.Mean() * float64(time.Millisecond))
	return ttft, tpot, nil
}

// BatchThroughput reads a saturating closed-batch run: its combined
// tokens/second. It errors when every request was rejected.
func (r *Result) BatchThroughput() (float64, error) {
	if r.Rejected == len(r.PerRequest) {
		return 0, fmt.Errorf("serve: all requests rejected")
	}
	return r.Throughput(), nil
}

// MeanFleet returns the time-averaged provisioned fleet size
// (ReplicaSeconds over the makespan).
func (r *Result) MeanFleet() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.ReplicaSeconds / r.Makespan.Seconds()
}

// PeakFleet returns the largest provisioned fleet size over the run,
// derived from replica lifetimes.
func (r *Result) PeakFleet() int {
	peak := 0
	for _, a := range r.Replicas {
		n := 0
		for _, b := range r.Replicas {
			if b.SpawnAt <= a.SpawnAt && a.SpawnAt < b.RetireAt {
				n++
			}
		}
		if n > peak {
			peak = n
		}
	}
	return peak
}

// CostPerMToken converts the run's dollars into price per million served
// tokens at the given hourly per-replica price — the cost axis of the
// provisioning-vs-attainment trade-off. With a cloud tier active the
// numerator is the full ledger (owned replica-seconds plus CloudSpend,
// over all served tokens including cloud-served ones); without one
// CloudSpend is zero and the value reduces exactly to the legacy
// replica-seconds-only formula documented in ARCHITECTURE.md.
func (r *Result) CostPerMToken(dollarsPerReplicaHour float64) float64 {
	if r.TotalTokens == 0 {
		return 0
	}
	return (dollarsPerReplicaHour/3600*r.ReplicaSeconds + r.CloudSpend) / float64(r.TotalTokens) * 1e6
}

func buildResult(name string, metrics []RequestMetrics, engines []*Engine) *Result {
	r := &Result{Name: name, PerRequest: metrics, SLOByClass: map[string]*SLOAttainment{}}
	r.TTFT.Grow(len(metrics))
	r.TPOT.Grow(len(metrics))
	r.Completion.Grow(len(metrics))
	for _, m := range metrics {
		if m.SLO != nil {
			a := r.SLOByClass[m.Class]
			if a == nil {
				a = &SLOAttainment{}
				r.SLOByClass[m.Class] = a
			}
			a.add(m)
		}
		r.Retries += m.Retries
		if m.Rejected {
			r.Rejected++
			switch m.RejectReason {
			case RejectKVExhausted:
				r.RejectedKVExhausted++
			case RejectUnservablePrompt:
				r.RejectedUnservable++
			case RejectCrashDropped:
				r.RejectedCrashDropped++
			case RejectShed:
				r.Shed++
				r.ShedTokens += m.InputTokens + m.OutputTokens
			}
			continue
		}
		r.TTFT.AddDuration(m.TTFT)
		if m.TPOT > 0 {
			r.TPOT.AddDuration(m.TPOT)
		}
		r.Completion.AddDuration(m.Completion)
		r.TotalTokens += m.InputTokens + m.OutputTokens
		if end := m.Arrival + m.Completion; end > r.Makespan {
			r.Makespan = end
		}
		r.Preemptions += m.Preemptions
	}
	for _, e := range engines {
		r.Iters += e.iters
		r.BaseIters += e.baseIters
		r.ShiftIters += e.shiftIters
		r.SLOPreemptions += e.sloPreempts
		r.Cost = r.Cost.Add(e.cost)
		if e.pcache != nil {
			r.CacheHits += e.cacheHits
			r.CacheMisses += e.cacheMisses
			r.CacheEvictions += e.pcache.evictions
			r.CacheCachedTokens += e.cacheCachedTokens
			r.ReplicaCaches = append(r.ReplicaCaches, ReplicaCacheStats{
				Name: e.cfg.Name, Hits: e.cacheHits,
				Misses: e.cacheMisses, Evictions: e.pcache.evictions,
			})
		}
	}
	return r
}
