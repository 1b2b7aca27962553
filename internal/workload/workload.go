// Package workload defines the request streams the serving simulator
// consumes: request records, size distributions, and arrival processes
// (open-loop Poisson, bursts, batched arrivals, closed batches). The
// synthetic trace twins of internal/trace are built from these pieces.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/tensor"
)

// NoDeadline is an SLO deadline the request does not care about: it can
// never be missed and never makes the request urgent.
const NoDeadline = time.Duration(math.MaxInt64)

// SLO is a per-request latency target: a TTFT deadline (arrival to first
// token) and a TPOT deadline (mean inter-token time). A zero deadline is
// always missed; NoDeadline is never missed. The serving engine uses the
// TTFT deadline to decide when a waiting request is at risk and may
// preempt or defer lower-priority work for it; both deadlines feed the
// per-class attainment metrics.
type SLO struct {
	TTFT time.Duration
	TPOT time.Duration
}

// Deadline builds an SLO. Use NoDeadline for a dimension the request
// does not care about.
func Deadline(ttft, tpot time.Duration) *SLO { return &SLO{TTFT: ttft, TPOT: tpot} }

// Request is one inference request.
type Request struct {
	ID      int
	Arrival time.Duration // offset from trace start
	// InputTokens is the prompt length; OutputTokens the generation length.
	InputTokens  int
	OutputTokens int
	// Class tags the request's origin (e.g. "interactive", "batch",
	// "agentic") for per-class reporting.
	Class string
	// Session optionally names the multi-turn session this request
	// belongs to — the affinity router's key. Empty means sessionless:
	// affinity routing falls back to load balancing for such requests.
	Session string
	// PromptKey optionally identifies the request's verbatim prompt
	// content: requests sharing a PromptKey are exact repeats, answerable
	// by a fleet-level shared cache tier and co-locatable by cache-aware
	// routing. Empty means unique content. Sizes are left to the request
	// (a shared-cache hit returns a response of the request's own size).
	PromptKey string
	// Origin optionally names the geographic region the request arrives
	// from — the geo tier's routing key. Empty means the topology's
	// first (home) region; single-region deployments can ignore it.
	Origin string
	// Priority orders requests inside an engine: higher runs first and is
	// preempted last. The zero value (with a nil SLO) reproduces plain
	// FIFO scheduling exactly.
	Priority int
	// SLO optionally attaches latency deadlines. nil means the request
	// carries no deadline and never triggers SLO-aware scheduling.
	SLO *SLO
	// Retries counts how many times this request was lost to a replica
	// crash and re-submitted. Zero for the common no-fault case.
	Retries int
	// Submitted preserves the original submission time across crash
	// re-enqueues (Arrival is rewritten to the re-enqueue time so the
	// engine admits the retry when it actually re-arrives). Meaningful
	// only when Retries > 0; use SubmittedAt.
	Submitted time.Duration
}

// SubmittedAt returns the request's original submission time: Arrival
// for a first attempt, the preserved Submitted stamp for a crash
// retry. Latency metrics measure from here so retries pay for the
// lost work.
func (r Request) SubmittedAt() time.Duration {
	if r.Retries > 0 {
		return r.Submitted
	}
	return r.Arrival
}

// TotalTokens returns input+output, the unit of combined throughput.
func (r Request) TotalTokens() int { return r.InputTokens + r.OutputTokens }

// CacheKey returns the request's prefix-cache identity: the session key
// when present (a multi-turn session's turns share their history
// prefix), else the PromptKey (verbatim repeats share everything), else
// empty — no reusable prefix.
func (r Request) CacheKey() string {
	if r.Session != "" {
		return r.Session
	}
	return r.PromptKey
}

// Urgent reports whether, at time now, the request's TTFT deadline is
// at risk but still winnable: more than half the TTFT budget has
// elapsed and the deadline has not passed. Once it has passed —
// including the always-missed zero deadline — the request stops being
// urgent, because preempting other work can no longer change the
// outcome.
func (r Request) Urgent(now time.Duration) bool {
	if r.SLO == nil || r.SLO.TTFT <= 0 || r.SLO.TTFT == NoDeadline {
		return false
	}
	elapsed := now - r.Arrival
	// Strict at the deadline: a first token emitted any later than now
	// already misses, so there is nothing left to rescue.
	return elapsed >= r.SLO.TTFT/2 && elapsed < r.SLO.TTFT
}

// Trace is a time-ordered request stream.
type Trace struct {
	Name     string
	Requests []Request
}

// Validate checks that arrivals are non-negative and time-ordered and
// that sizes are positive.
func (t *Trace) Validate() error {
	var last time.Duration
	for i, r := range t.Requests {
		if r.Arrival < 0 {
			return fmt.Errorf("workload: trace %s Requests[%d].Arrival %v is negative", t.Name, i, r.Arrival)
		}
		if r.Arrival < last {
			return fmt.Errorf("workload: trace %s not time-ordered at index %d", t.Name, i)
		}
		if r.InputTokens <= 0 || r.OutputTokens <= 0 {
			return fmt.Errorf("workload: trace %s request %d has non-positive sizes", t.Name, i)
		}
		last = r.Arrival
	}
	return nil
}

// Duration returns the arrival span of the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival
}

// TotalTokens sums input+output over all requests.
func (t *Trace) TotalTokens() int {
	n := 0
	for _, r := range t.Requests {
		n += r.TotalTokens()
	}
	return n
}

// OfferedRate returns the average offered load in tokens/second.
func (t *Trace) OfferedRate() float64 {
	d := t.Duration().Seconds()
	if d == 0 {
		return 0
	}
	return float64(t.TotalTokens()) / d
}

// sortAndNumber finalizes a request list into a trace.
func sortAndNumber(name string, reqs []Request) *Trace {
	slices.SortStableFunc(reqs, func(a, b Request) int { return cmp.Compare(a.Arrival, b.Arrival) })
	for i := range reqs {
		reqs[i].ID = i
	}
	return &Trace{Name: name, Requests: reqs}
}

// Stamp sets Priority and SLO on every request whose Class equals class
// (or on all requests when class is ""), returning the trace for
// chaining. The SLO pointer is shared; engines treat it as read-only.
func (t *Trace) Stamp(class string, priority int, slo *SLO) *Trace {
	for i := range t.Requests {
		if class == "" || t.Requests[i].Class == class {
			t.Requests[i].Priority = priority
			t.Requests[i].SLO = slo
		}
	}
	return t
}

// StampOrigin sets the origin region on every request whose Class equals
// class (or on all requests when class is ""), returning the trace for
// chaining — the geo-tier sibling of Stamp.
func (t *Trace) StampOrigin(class, origin string) *Trace {
	for i := range t.Requests {
		if class == "" || t.Requests[i].Class == class {
			t.Requests[i].Origin = origin
		}
	}
	return t
}

// StampPromptKeys marks a deterministic fraction of requests as verbatim
// repeats drawn from a pool of hot prompts, returning the trace for
// chaining — the shared-cache sibling of Stamp. Each marked request gets
// PromptKey "hot-<i>" for a pool index i, so roughly repeatFrac of the
// trace shares keys with other requests (the first occurrence of each
// key is still a cold miss). Fractions <= 0 or pools <= 0 leave the
// trace untouched.
func (t *Trace) StampPromptKeys(seed uint64, repeatFrac float64, pool int) *Trace {
	if repeatFrac <= 0 || pool <= 0 {
		return t
	}
	rng := tensor.NewRNG(seed ^ 0x70726f6d7074) // "prompt"
	for i := range t.Requests {
		if rng.Float64() < repeatFrac {
			t.Requests[i].PromptKey = fmt.Sprintf("hot-%d", rng.Intn(pool))
		}
	}
	return t
}

// Merge combines traces into one time-ordered trace.
func Merge(name string, traces ...*Trace) *Trace {
	n := 0
	for _, t := range traces {
		n += len(t.Requests)
	}
	reqs := make([]Request, 0, n)
	for _, t := range traces {
		reqs = append(reqs, t.Requests...)
	}
	return sortAndNumber(name, reqs)
}

// --- Size distributions ---

// SizeDist draws (input, output) token counts.
type SizeDist interface {
	Sample(rng *tensor.RNG) (in, out int)
}

// FixedSize always returns the same sizes (the paper's parameterized
// benchmarks: 4k/250, 8k/250, ...).
type FixedSize struct {
	In, Out int
}

// Sample implements SizeDist.
func (f FixedSize) Sample(*tensor.RNG) (int, int) { return f.In, f.Out }

// LognormalSize draws lognormal sizes clamped to [Min, Max].
type LognormalSize struct {
	MedianIn, SigmaIn   float64
	MedianOut, SigmaOut float64
	MinIn, MaxIn        int
	MinOut, MaxOut      int
}

// Sample implements SizeDist.
func (l LognormalSize) Sample(rng *tensor.RNG) (int, int) {
	in := lognormal(rng, l.MedianIn, l.SigmaIn)
	out := lognormal(rng, l.MedianOut, l.SigmaOut)
	return clamp(in, l.MinIn, l.MaxIn), clamp(out, l.MinOut, l.MaxOut)
}

func lognormal(rng *tensor.RNG, median, sigma float64) int {
	return int(median * math.Exp(sigma*rng.Norm()))
}

func clamp(v, lo, hi int) int {
	if lo > 0 && v < lo {
		return lo
	}
	if hi > 0 && v > hi {
		return hi
	}
	if v < 1 {
		return 1
	}
	return v
}

// Mixture draws from component distributions with the given weights.
type Mixture struct {
	Dists   []SizeDist
	Weights []float64
	Classes []string // optional class tag per component
}

// Sample implements SizeDist.
func (m Mixture) Sample(rng *tensor.RNG) (int, int) {
	in, out, _ := m.SampleClass(rng)
	return in, out
}

// SampleClass draws sizes plus the component's class tag.
func (m Mixture) SampleClass(rng *tensor.RNG) (in, out int, class string) {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range m.Weights {
		x -= w
		if x <= 0 || i == len(m.Weights)-1 {
			in, out = m.Dists[i].Sample(rng)
			if i < len(m.Classes) {
				class = m.Classes[i]
			}
			return in, out, class
		}
	}
	panic("workload: unreachable")
}

// --- Arrival processes ---

// Poisson generates an open-loop Poisson arrival stream at ratePerSec for
// the given duration.
func Poisson(name string, rng *tensor.RNG, ratePerSec float64, duration time.Duration, sizes SizeDist, class string) *Trace {
	if ratePerSec <= 0 {
		panic("workload: non-positive rate")
	}
	var reqs []Request
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / ratePerSec
		at := time.Duration(t * float64(time.Second))
		if at >= duration {
			break
		}
		in, out := sizes.Sample(rng)
		reqs = append(reqs, Request{Arrival: at, InputTokens: in, OutputTokens: out, Class: class})
	}
	return sortAndNumber(name, reqs)
}

// Burst generates n requests arriving uniformly within [start, start+width).
func Burst(name string, rng *tensor.RNG, n int, start, width time.Duration, sizes SizeDist, class string) *Trace {
	reqs := make([]Request, n)
	for i := range reqs {
		at := start + time.Duration(rng.Float64()*float64(width))
		in, out := sizes.Sample(rng)
		reqs[i] = Request{Arrival: at, InputTokens: in, OutputTokens: out, Class: class}
	}
	return sortAndNumber(name, reqs)
}

// BatchedArrivals generates groups of groupSize requests every interval
// (the Mooncake pattern: "a batch of nearly 9 requests is sent every 3
// seconds").
func BatchedArrivals(name string, rng *tensor.RNG, groupSize int, interval, duration time.Duration, sizes SizeDist, class string) *Trace {
	var reqs []Request
	for at := time.Duration(0); at < duration; at += interval {
		for i := 0; i < groupSize; i++ {
			in, out := sizes.Sample(rng)
			reqs = append(reqs, Request{Arrival: at, InputTokens: in, OutputTokens: out, Class: class})
		}
	}
	return sortAndNumber(name, reqs)
}

// Closed generates n identical requests all arriving at time zero — the
// peak-throughput measurement of Section 4.3.1 ("send a batch of requests
// and provide sufficient concurrency to saturate the GPU").
func Closed(name string, n, inTok, outTok int) *Trace {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{InputTokens: inTok, OutputTokens: outTok, Class: "batch"}
	}
	return sortAndNumber(name, reqs)
}

// Single generates one request at time zero — the minimum-latency
// measurement ("process requests sequentially").
func Single(inTok, outTok int) *Trace {
	return &Trace{Name: "single", Requests: []Request{{
		InputTokens: inTok, OutputTokens: outTok, Class: "interactive",
	}}}
}
