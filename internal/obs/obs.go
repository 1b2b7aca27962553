// Package obs is the simulator's observability layer: deterministic,
// sim-time-stamped request lifecycle spans, sampled fleet time series
// and per-iteration engine throughput records. Spans export as Chrome
// trace-event JSON (Perfetto-loadable), samples as CSV/JSON time
// series, and iteration records as a bucketed throughput series.
//
// An Observer collects one run. The serve stack threads it through as
// a nil-gated hook: every emission site checks for a nil sink before
// materializing any arguments, so the disabled path costs a single
// pointer compare and zero allocations, and disabled output stays
// byte-identical to an uninstrumented build.
//
// Determinism contract: events live in per-track Streams, and one run
// appends to all of them from one goroutine — engines into their own
// streams as they step, the controller into balancer streams and into
// replicas' streams for fleet lifecycle events. Streams are registered
// in controller order, so registration order, per-stream event order,
// and therefore every exported byte are fixed by the seed. An Observer
// belongs to one run; concurrent sweep cells never share one. Exports
// sort events by (time, stream registration order, intra-stream index)
// — a total order with no ties.
package obs

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// Kind labels one lifecycle event.
type Kind uint8

// Request lifecycle kinds (Req >= 0) and fleet lifecycle kinds
// (Req == NoRequest, attached to a replica or balancer track).
const (
	// EvEnqueue: the request entered a replica's waiting queue
	// (stamped at its arrival, which may precede the emitting
	// iteration — exports re-sort by time).
	EvEnqueue Kind = iota
	// EvAdmit: the scheduler moved the request into the running batch.
	EvAdmit
	// EvPrefillDone: the prompt (or recompute) finished prefilling and
	// the request entered decode. Emitted again after each preemption.
	EvPrefillDone
	// EvPreempt: the request was preempted (recompute) back to the
	// queue.
	EvPreempt
	// EvFinish: the final token was produced. Terminal.
	EvFinish
	// EvReject: the engine rejected the request (Detail = reason).
	// Terminal.
	EvReject
	// EvRoute: the balancer chose a replica (Detail = replica, or the
	// chosen region on a geo balancer track).
	EvRoute
	// EvSharedHit: the shared cache tier answered the request without
	// touching a replica. Terminal.
	EvSharedHit
	// EvRetry: a crash-lost request was resubmitted (a retry hop;
	// cross-region refugee hops land on the geo balancer track).
	EvRetry
	// EvDrop: the request exhausted its retry budget (or was stranded
	// with no routable fleet) and was dropped. Terminal.
	EvDrop
	// EvLost: in-flight work was lost to a crash or ejection drain.
	// Non-terminal — followed by EvRetry or EvDrop.
	EvLost
	// EvCrash: the replica crashed (fault plan or outage).
	EvCrash
	// EvRestart: the replica came back from a planned restart.
	EvRestart
	// EvEject: the health tier ejected the replica from routing.
	EvEject
	// EvReadmit: the health tier readmitted the replica after cooldown.
	EvReadmit
	// EvScaleUp: the autoscaler spawned a replica (Detail = name).
	EvScaleUp
	// EvScaleDown: the autoscaler drained a replica (Detail = name).
	EvScaleDown
	// EvShed: admission control shed the request as unservable within
	// its SLO (Detail = reason). Terminal.
	EvShed
	// EvBreakerOpen: the track's circuit breaker tripped open — routing
	// diverts around it.
	EvBreakerOpen
	// EvBreakerHalfOpen: the breaker's open window elapsed; probe
	// traffic is allowed through again.
	EvBreakerHalfOpen
	// EvBreakerClose: the half-open probes succeeded and the breaker
	// closed.
	EvBreakerClose
	// EvCloudRoute: the balancer diverted the request to the elastic
	// cloud backend, which accepted and priced it (Detail = the deciding
	// policy: "overflow", "shed-or-buy", or "geo-overflow"). Terminal —
	// the cloud never rejects work it accepted.
	EvCloudRoute
	// EvCloudThrottle: the cloud backend delayed or refused a dispatch
	// (Detail = "rate" for a rate-limit wait, "budget" for a
	// MaxSpend refusal, "fail" for an injected transient failure).
	// Non-terminal: the request proceeds delayed, locally, or into the
	// retry queue.
	EvCloudThrottle
)

// NoRequest is the Req value for fleet lifecycle events.
const NoRequest = -1

var kindNames = [...]string{
	EvEnqueue:         "enqueue",
	EvAdmit:           "admit",
	EvPrefillDone:     "prefill-done",
	EvPreempt:         "preempt",
	EvFinish:          "finish",
	EvReject:          "reject",
	EvRoute:           "route",
	EvSharedHit:       "shared-hit",
	EvRetry:           "retry",
	EvDrop:            "drop",
	EvLost:            "lost",
	EvCrash:           "crash",
	EvRestart:         "restart",
	EvEject:           "eject",
	EvReadmit:         "readmit",
	EvScaleUp:         "scale-up",
	EvScaleDown:       "scale-down",
	EvShed:            "shed",
	EvBreakerOpen:     "breaker-open",
	EvBreakerHalfOpen: "breaker-half-open",
	EvBreakerClose:    "breaker-close",
	EvCloudRoute:      "cloud-route",
	EvCloudThrottle:   "cloud-throttle",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Terminal reports whether the kind ends a request's span graph: a
// request that entered the system finishes, is rejected, is dropped,
// or is answered by the shared cache — exactly one of these, exactly
// once. Only tests call it; it stays next to the kinds because it is
// the span-conservation rule they check, and a new kind must decide
// here whether it ends a request.
func (k Kind) Terminal() bool {
	switch k {
	case EvFinish, EvReject, EvDrop, EvSharedHit, EvShed, EvCloudRoute:
		return true
	}
	return false
}

// Event is one sim-time-stamped lifecycle event.
type Event struct {
	At     time.Duration `json:"at"`
	Kind   Kind          `json:"kind"`
	Req    int           `json:"req"`              // request ID, NoRequest for fleet events
	Detail string        `json:"detail,omitempty"` // reason / replica / region
}

// Iter is one engine iteration's throughput record.
//
// Tokens counts the prompt tokens the iteration prefilled plus the
// output tokens it emitted. Summed over a run this is the work the
// engines did, which equals Result.TotalTokens only when no request
// was preempted, none hit a prefix cache and no started work was lost
// or rejected: a recompute after a preemption prefills the prompt (and
// the tokens decoded so far) again, while prefix-cache hits are never
// prefilled at all.
type Iter struct {
	At     time.Duration // iteration end time
	Tokens int
}

// Stream is one track's append-only event buffer: a replica, a
// balancer, or a geo balancer. Replica streams also hold the engine's
// iteration records, which stay out of Events and every trace or
// series export. All methods are nil-receiver safe so emission sites
// stay a single guarded append.
type Stream struct {
	Region string // owning region ("" outside the geo tier)
	Track  string // replica name, "balancer", or "geo-balancer"
	order  int    // registration order; export tie-break
	events []Event
	iters  []Iter
}

// Event appends one event. Nil-safe: a nil stream is the disabled
// path and returns before touching its arguments.
func (s *Stream) Event(at time.Duration, kind Kind, req int, detail string) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{At: at, Kind: kind, Req: req, Detail: detail})
}

// Events returns the stream's events in emission order.
func (s *Stream) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// Iter appends one iteration record. Nil-safe like Event.
func (s *Stream) Iter(at time.Duration, tokens int) {
	if s == nil {
		return
	}
	s.iters = append(s.iters, Iter{At: at, Tokens: tokens})
}

// Iters returns the stream's iteration records in emission order.
func (s *Stream) Iters() []Iter {
	if s == nil {
		return nil
	}
	return s.iters
}

// ClassAttainment is one request class's SLO attainment within a
// sampling window: of the Requests that completed or were rejected in
// the window, TTFTMet had a TTFT deadline and met it.
type ClassAttainment struct {
	Class    string `json:"class"`
	Requests int    `json:"requests"`
	TTFTMet  int    `json:"ttftMet"`
}

// Sample is one controller-tick snapshot of a fleet (or of one region
// in the geo tier).
type Sample struct {
	At    time.Duration `json:"at"`
	Track string        `json:"track"` // fleet or region name

	// Fleet composition after the tick's scaling decision.
	Desired  int `json:"desired"`
	Active   int `json:"active"`
	Warming  int `json:"warming"`
	Draining int `json:"draining"`
	Down     int `json:"down"`    // crashed or ejected right now
	Ejected  int `json:"ejected"` // subset of Down ejected by health

	QueuedRequests  int `json:"queuedRequests"` // waiting + parked backlog
	RunningRequests int `json:"runningRequests"`

	// KVUtil is the live fleet's paged-KV occupancy in [0,1].
	KVUtil float64 `json:"kvUtil"`
	// CacheHitRate is the cumulative measured prefix-cache hit rate in
	// [0,1] (zero when no replica runs a measured cache).
	CacheHitRate float64 `json:"cacheHitRate"`

	// ShedRate is the fraction of the window's terminal outcomes that
	// admission control shed (zero without an admission policy).
	ShedRate float64 `json:"shedRate"`
	// BreakersOpen / BreakersHalfOpen count replica circuit breakers in
	// those states after the tick (zero without a breaker config).
	BreakersOpen     int `json:"breakersOpen"`
	BreakersHalfOpen int `json:"breakersHalfOpen"`

	// CloudRequests counts requests the elastic cloud backend served in
	// the window since the previous sample; CloudSpend is the cumulative
	// dollars bought so far. Both zero without a cloud tier.
	CloudRequests int     `json:"cloudRequests"`
	CloudSpend    float64 `json:"cloudSpend"`

	// Classes is the per-class rolling attainment since the previous
	// sample, sorted by class name.
	Classes []ClassAttainment `json:"classes,omitempty"`
}

// Observer collects one run's streams and samples. The zero value is
// not useful; call NewObserver. A nil *Observer is the disabled layer:
// Stream returns nil (so downstream emissions no-op) and Sample
// returns immediately.
type Observer struct {
	streams []*Stream
	samples []Sample
}

// NewObserver returns an empty collector for one run.
func NewObserver() *Observer { return &Observer{} }

// Stream registers a new track. Registration happens on the serial
// controller path (cluster setup, replica spawn), never concurrently,
// so registration order is deterministic. Nil-safe: a nil observer
// returns a nil stream.
func (o *Observer) Stream(region, track string) *Stream {
	if o == nil {
		return nil
	}
	s := &Stream{Region: region, Track: track, order: len(o.streams)}
	o.streams = append(o.streams, s)
	return s
}

// Sample appends one controller-tick snapshot. Called only from the
// serial controller loop. Nil-safe.
func (o *Observer) Sample(s Sample) {
	if o == nil {
		return
	}
	o.samples = append(o.samples, s)
}

// Streams returns every registered track in registration order.
func (o *Observer) Streams() []*Stream {
	if o == nil {
		return nil
	}
	return o.streams
}

// Samples returns every snapshot in controller-tick order.
func (o *Observer) Samples() []Sample {
	if o == nil {
		return nil
	}
	return o.samples
}

// ThroughputSeries buckets every stream's iteration tokens by
// iteration end time (Figure 7's throughput over time). Bucket totals
// are integer sums, so they do not depend on stream order.
func (o *Observer) ThroughputSeries(width time.Duration) *stats.Series {
	s := stats.NewSeries(width)
	for _, st := range o.Streams() {
		for _, it := range st.iters {
			s.Observe(it.At, float64(it.Tokens))
		}
	}
	return s
}

// EventCount totals events across all streams.
func (o *Observer) EventCount() int {
	n := 0
	for _, s := range o.Streams() {
		n += len(s.events)
	}
	return n
}

// Empty reports whether the run captured nothing (no events and no
// samples) — e.g. the scenario does not honor the observability hook.
func (o *Observer) Empty() bool {
	return o.EventCount() == 0 && len(o.Samples()) == 0
}

// StreamEvent is an Event joined with its track identity, as produced
// by Events.
type StreamEvent struct {
	Event
	Region string
	Track  string
}

// Events flattens every stream into one slice sorted by (At, stream
// registration order, intra-stream index) — a total order with no
// ties, so the result (and every export derived from it) is
// byte-identical across worker counts.
func (o *Observer) Events() []StreamEvent {
	type keyed struct {
		ev    StreamEvent
		order int
		idx   int
	}
	all := make([]keyed, 0, o.EventCount())
	for _, s := range o.Streams() {
		for i, ev := range s.events {
			all = append(all, keyed{
				ev:    StreamEvent{Event: ev, Region: s.Region, Track: s.Track},
				order: s.order,
				idx:   i,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.order != b.order {
			return a.order < b.order
		}
		return a.idx < b.idx
	})
	out := make([]StreamEvent, len(all))
	for i, k := range all {
		out[i] = k.ev
	}
	return out
}
