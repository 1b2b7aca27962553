// Package serve is the discrete-event serving simulator: a vLLM-style
// engine with continuous batching, chunked prefill, a paged KV cache with
// admission control and preemption-by-recompute, and per-iteration
// parallelism selection (TP, SP, combined, or Shift's threshold switch).
// Iteration latencies come from the internal/perf cost model; requests
// come from internal/workload traces. A Cluster composes several engines
// for data parallelism with a load-balancing router, and can autoscale
// the replica fleet at run time from queue-depth or SLO-attainment
// signals, charging cold-start penalties and draining retired replicas
// (see Autoscaler). docs/ARCHITECTURE.md walks through the lifecycle
// and both extension points.
package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/specdec"
	"repro/internal/workload"
)

// Strategy selects how an engine chooses its per-iteration parallelism.
type Strategy int

const (
	// StrategyStatic always runs the configured base parallelism.
	StrategyStatic Strategy = iota
	// StrategyShift switches between the base (SP,TP) config and the
	// full-TP shift config on the batched-token threshold (Algorithm 2).
	StrategyShift
)

// Config describes one engine.
type Config struct {
	Name string
	// CM prices iterations (model + node + calibration).
	CM *perf.CostModel
	// Par is the base parallel configuration of this engine.
	Par perf.Parallelism
	// Strategy selects static parallelism or Shift switching.
	Strategy Strategy
	// ShiftThreshold is Algorithm 2's batched-token threshold (only used
	// by StrategyShift; 0 means perf.DefaultShiftThreshold).
	ShiftThreshold int
	// ChunkBudget caps new prefill tokens per iteration (chunked prefill,
	// vLLM's max_num_batched_tokens). 0 means DefaultChunkBudget.
	ChunkBudget int
	// MaxSeqs caps concurrently running sequences (vLLM's max_num_seqs).
	// 0 means DefaultMaxSeqs.
	MaxSeqs int
	// BlockTokens is the KV block size. 0 means DefaultBlockTokens.
	BlockTokens int
	// Stack optionally composes SwiftKV and speculative decoding.
	Stack specdec.Stack
	// EP enables expert parallelism for MoE models (the paper's future
	// work, implemented as an extension; see internal/perf/ep.go). The
	// expert shards live on the same GPUs as the SP/TP grid.
	EP perf.EPConfig
	// PrefixCacheHitRate is the fraction of each prompt served from a
	// prefix cache (vLLM automatic prefix caching): those tokens skip
	// prefill compute but still occupy KV blocks. 0 disables.
	PrefixCacheHitRate float64
	// PrefixCache, when set, replaces the assumed PrefixCacheHitRate
	// with a measured per-replica cache: a request's prefix is served
	// from cache only when its cache key actually landed on this replica
	// before (and survived LRU eviction). See PrefixCacheConfig. nil
	// keeps the assumed-rate path byte-identical.
	PrefixCache *PrefixCacheConfig
	// Admission, when set, enables SLO-aware admission control: each
	// scheduling pass sheds waiting requests the policy judges unable to
	// meet their TTFT deadline, with the RejectShed reason, instead of
	// letting deadlines silently miss while the queue drowns. nil (or
	// AdmissionNone) keeps the legacy always-admit path byte-identical.
	Admission *AdmissionConfig
}

// Admission policy names (AdmissionConfig.Policy).
const (
	// AdmissionNone admits everything — the legacy path.
	AdmissionNone = "none"
	// AdmissionDeadline sheds every waiter whose projected first token
	// (queue ahead of it, measured iteration time) lands past its TTFT
	// deadline — requests that are provably going to miss anyway.
	AdmissionDeadline = "deadline-infeasible"
	// AdmissionProjected is AdmissionDeadline gated by a queue-wide
	// hysteresis band: shedding only turns on while the waiting queue's
	// projected TTFT attainment is below 0.7, and stays on until it
	// recovers to 0.9 — so isolated stragglers survive but a drowning
	// queue is cut back to servable load.
	AdmissionProjected = "projected-attainment"
	// AdmissionShedOrBuy judges waiters like AdmissionDeadline, but when
	// the cluster/geo has a cloud tier attached the doomed waiters are
	// offered to the elastic backend (bought, within MaxSpend) instead of
	// rejected; refusals and cloud failures shed normally. Without a
	// cloud tier it degrades to AdmissionDeadline exactly.
	AdmissionShedOrBuy = "shed-or-buy"
)

// AdmissionPolicyNames lists the admission policies in sweep order.
var AdmissionPolicyNames = []string{AdmissionNone, AdmissionDeadline, AdmissionProjected, AdmissionShedOrBuy}

// The projected-attainment hysteresis band: shedding starts below
// admissionTarget and stops at or above admissionRelax.
const (
	admissionTarget = 0.7
	admissionRelax  = 0.9
)

// AdmissionConfig selects the engine's admission policy.
type AdmissionConfig struct {
	// Policy is one of AdmissionPolicyNames; "" means AdmissionNone.
	Policy string
}

// enabled reports whether the config actually sheds anything.
func (a *AdmissionConfig) enabled() bool {
	return a != nil && a.Policy != "" && a.Policy != AdmissionNone
}

func (a *AdmissionConfig) validate() error {
	if a == nil {
		return nil
	}
	switch a.Policy {
	case "", AdmissionNone, AdmissionDeadline, AdmissionProjected, AdmissionShedOrBuy:
	default:
		return fmt.Errorf("serve: AdmissionConfig.Policy %q is unknown (want one of %v)", a.Policy, AdmissionPolicyNames)
	}
	return nil
}

// admissionState is one engine's private admission-control state (each
// replica judges its own queue; no state is shared across replicas).
type admissionState struct {
	policy string
	// shedding is the projected-attainment hysteresis latch.
	shedding bool
}

// Defaults mirroring vLLM's.
const (
	DefaultChunkBudget = 8192
	DefaultMaxSeqs     = 256
	DefaultBlockTokens = 16
)

func (c Config) withDefaults() Config {
	if c.ShiftThreshold == 0 {
		c.ShiftThreshold = perf.DefaultShiftThreshold
	}
	if c.ChunkBudget == 0 {
		c.ChunkBudget = DefaultChunkBudget
	}
	if c.MaxSeqs == 0 {
		c.MaxSeqs = DefaultMaxSeqs
	}
	if c.BlockTokens == 0 {
		c.BlockTokens = DefaultBlockTokens
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CM == nil {
		return fmt.Errorf("serve: engine %q has no cost model", c.Name)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"ShiftThreshold", c.ShiftThreshold}, {"ChunkBudget", c.ChunkBudget}, {"MaxSeqs", c.MaxSeqs}, {"BlockTokens", c.BlockTokens}} {
		if f.v < 0 {
			return fmt.Errorf("serve: engine %q: negative Config.%s %d", c.Name, f.name, f.v)
		}
	}
	if c.Strategy != StrategyStatic && c.Strategy != StrategyShift {
		return fmt.Errorf("serve: engine %q: unknown Config.Strategy %d", c.Name, c.Strategy)
	}
	if err := c.Par.Validate(); err != nil {
		return fmt.Errorf("serve: engine %q: Config.Par: %w", c.Name, err)
	}
	if err := c.EP.Validate(c.Par.World()); err != nil {
		return fmt.Errorf("serve: engine %q: Config.EP: %w", c.Name, err)
	}
	if c.PrefixCacheHitRate < 0 || c.PrefixCacheHitRate >= 1 {
		return fmt.Errorf("serve: engine %q: Config.PrefixCacheHitRate %v is outside [0, 1)", c.Name, c.PrefixCacheHitRate)
	}
	if err := c.PrefixCache.validate(); err != nil {
		return err
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	if err := c.Stack.Validate(); err != nil {
		return fmt.Errorf("serve: engine %q: Config.Stack: %w", c.Name, err)
	}
	return nil
}

// RejectReason names why an engine rejected a request, so admission
// regressions show up as a shifted reason mix rather than a bare count.
type RejectReason string

const (
	// RejectKVExhausted marks an admitted sequence whose KV growth
	// exceeded the whole cache: a lone runner that could not continue
	// even with every other sequence evicted.
	RejectKVExhausted RejectReason = "kv-exhausted"
	// RejectUnservablePrompt marks a prompt that could never be admitted:
	// larger than the engine's entire KV cache (directly, or after
	// preemption grew its recompute length past it).
	RejectUnservablePrompt RejectReason = "unservable-prompt"
	// RejectCrashDropped marks a request lost to replica crashes more
	// times than the fault plan's retry budget allows — the fault
	// controller's terminal outcome, never set by an engine itself.
	RejectCrashDropped RejectReason = "crash-dropped"
	// RejectShed marks a waiting request shed by admission control: the
	// policy judged its TTFT deadline unmeetable and cut it early rather
	// than serve a guaranteed miss (see AdmissionConfig).
	RejectShed RejectReason = "shed"
)

// seq is one routed request's engine record: built when the request is
// routed to the engine (enqueue), it moves by pointer from the arrivals
// to the waiting and running queues and ends on the completed or
// rejected list. Records live in the engine's slab, so seq's size is the
// engine's memory per request.
type seq struct {
	req workload.Request
	// effInput is the prompt length to (re)compute: input plus any
	// decoded tokens discarded by preemption-by-recompute.
	effInput int
	// cached is the prefix served from the prefix cache: it occupies KV
	// blocks but skips prefill compute.
	cached    int
	prefilled int
	decoded   float64       // fractional under speculative decoding
	firstTok  time.Duration // -1 until produced
	finished  time.Duration
	preempted int32
	// kvBlocks is the sequence's KV holding: the blocks the engine's
	// block pool granted it, zero unless it is running. It sits beside
	// preempted as an int32, so the two share one 8-byte word.
	kvBlocks int32
	// rejectReason is set when the engine gives up on the sequence.
	rejectReason RejectReason
}

// ctx is the sequence's context length: its prompt and decoded tokens,
// the last of which enters the KV on the next iteration. A recompute
// re-prefills the decoded tokens preemption folded into effInput, so
// prefilled already counts those and decoded adds only the ones since.
func (s *seq) ctx() int { return s.prefilled + int(s.decoded) - (s.effInput - s.req.InputTokens) }

func (s *seq) prefillDone() bool { return s.prefilled >= s.effInput }

func (s *seq) done() bool {
	return s.prefillDone() && int(s.decoded) >= s.req.OutputTokens
}

// waitQueue is the engine's waiting queue. Preemption-by-recompute
// re-queues victims at the head (vLLM semantics), which as a plain slice
// costs a fresh O(n) allocation-and-copy per preemption — preemption
// storms were O(n²). The queue keeps spare slots in front of the head
// instead, so push-front is O(1) amortized and near-head removals shift
// the short side only; ordering and iteration semantics are identical to
// the old slice (pinned by the engine tests and BENCH regressions).
// Admission removes near the head, so the slack grows with every
// admitted request until a full pushBack reclaims it.
type waitQueue struct {
	buf  []*seq // buf[head:] is the live queue, buf[:head] is slack
	head int
}

func (q *waitQueue) len() int      { return len(q.buf) - q.head }
func (q *waitQueue) at(i int) *seq { return q.buf[q.head+i] }

// seqs returns the live queue in order; the slice aliases the queue, so
// callers may reorder in place (orderWaiting) but not insert or delete.
func (q *waitQueue) seqs() []*seq { return q.buf[q.head:] }

// pushBack appends s. A full buffer whose front slack is at least twice
// what pushFront would give a queue this long is compacted in place,
// keeping that much slack in front, instead of grown: the buffer then
// tracks the longest queue rather than every request ever queued, each
// compaction frees at least frontSlack slots at the back (so it costs
// O(1) amortized), and alternating preempt/admit turns neither compact
// nor reallocate on every turn.
func (q *waitQueue) pushBack(s *seq) {
	if n, k := q.len(), frontSlack(q.len()); len(q.buf) == cap(q.buf) && q.head >= 2*k {
		copy(q.buf[k:], q.buf[q.head:])
		clear(q.buf[k+n:])
		q.buf, q.head = q.buf[:k+n], k
	}
	q.buf = append(q.buf, s)
}

// frontSlack is the slack pushFront opens in front of an n-long queue.
func frontSlack(n int) int { return n/2 + 4 }

// pushFront puts s at the head. With no slack in front, it moves the
// queue into a new buffer with frontSlack(n) free slots in front and as
// many at the back, so the next pushBack does not reallocate and copy it
// again.
func (q *waitQueue) pushFront(s *seq) {
	if q.head == 0 {
		n := len(q.buf)
		slack := frontSlack(n)
		nb := make([]*seq, slack+n, 2*slack+n)
		copy(nb[slack:], q.buf)
		q.buf, q.head = nb, slack
	}
	q.head--
	q.buf[q.head] = s
}

// removeAt deletes the element at index i preserving order, shifting
// whichever side of the queue is shorter (admission removes near the
// head, where this is O(1)-ish rather than O(n)).
func (q *waitQueue) removeAt(i int) {
	if n := q.len(); i < n-1-i {
		copy(q.buf[q.head+1:q.head+i+1], q.buf[q.head:q.head+i])
		q.buf[q.head] = nil
		q.head++
	} else {
		copy(q.buf[q.head+i:], q.buf[q.head+i+1:])
		q.buf[len(q.buf)-1] = nil
		q.buf = q.buf[:len(q.buf)-1]
	}
}

// clear empties the queue, dropping element references but keeping the
// backing capacity.
func (q *waitQueue) clear() {
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf, q.head = q.buf[:0], 0
}

// Engine simulates one inference engine over its share of a trace.
type Engine struct {
	cfg      Config
	blocks   *blockPool
	arrivals []*seq // routed requests in arrival order; [nextIdx:] not yet admitted
	nextIdx  int
	// slab holds the records arrivals points into: appends within its
	// capacity never move one, and a full slab is replaced by a fresh
	// block (reserve sizes the first).
	slab      []seq
	waiting   waitQueue
	running   []*seq
	now       time.Duration
	completed []*seq

	// sloAware flips on the first admitted request carrying a non-zero
	// Priority or an SLO; until then every scheduling decision is
	// bit-for-bit identical to the FIFO engine.
	sloAware bool

	// Degrade window (fault injection): iterations priced while now is
	// inside [slowFrom, slowUntil) cost slowFactor times more — a
	// sick-but-alive machine only live-state routing can see.
	slowFactor          float64
	slowFrom, slowUntil time.Duration

	// Reusable per-iteration buffers: exactly one plan is alive between
	// schedule and apply, so the backing arrays are recycled instead of
	// reallocated every iteration (engine hot path).
	planPrefills []*seq
	planChunks   []int
	planDecodes  []*seq
	urgentsBuf   []urgentDemand

	// Accounting.
	iters        int
	plans        int // iterations scheduled and applied one by one; the rest ran ahead
	retirePasses int // passes over the running queue made only to retire (retire calls)
	shiftIters   int // iterations on the shift (full TP) config
	baseIters    int // iterations on the base config
	preemptions  int
	sloPreempts  int // preemptions forced by an at-risk TTFT deadline
	rejected     []*seq
	cost         perf.Cost // accumulated component times
	tokensServed int

	// Load ledger: backlogTokens sums TotalTokens over the requests routed
	// here and not yet completed, rejected, staged for the cloud or lost to
	// a crash drain; completedTokens sums TotalTokens over completions.
	// Routers and geo views read the replica's load from here.
	backlogTokens   int
	completedTokens int

	// stream receives the engine's request lifecycle events (enqueue,
	// admit, prefill-done, preempt, finish, reject, shed), one throughput
	// record per iteration (obs.Iter), and the controller-written fleet
	// events for this replica (crash, eject, restart, readmit, lost,
	// breaker transitions). nil on the untraced fast path: obs.Stream's
	// methods are nil-safe, so every hook is a pointer compare that
	// allocates nothing (pinned by TestDisabledTraceHookAllocates0).
	stream *obs.Stream

	// Measured prefix cache (nil unless Config.PrefixCache is set).
	// cacheHits+cacheMisses increment exactly once per admitted request;
	// cacheCachedTokens sums the prompt tokens hits actually served from
	// cache (post-clamp), so it never exceeds ShareFraction of the
	// admitted prompt volume.
	pcache            *lruCache
	cacheHits         int
	cacheMisses       int
	cacheCachedTokens int

	// Admission control (nil unless Config.Admission enables a policy):
	// the shed pass runs at the top of every schedule() call, so the
	// legacy path pays one pointer compare. shed/shedTokens count what
	// the policy cut; shedFlags is the pass's reusable scratch buffer.
	admission  *admissionState
	shed       int
	shedTokens int
	shedFlags  []bool

	// Shed-or-buy staging (empty unless the cluster/geo attached a cloud
	// tier — buyDivert — and the policy is AdmissionShedOrBuy): waiters
	// the shed pass pulled from the queue, parked for the controller's cloud
	// offer instead of immediate rejection. The owning run drains the
	// staging via takeCloudShed before collecting metrics.
	buyDivert bool
	cloudShed []cloudShedEntry

	// ahead is the run-ahead stretch a horizon cut left open (zero when
	// none is): the next stepUntil resumes it without scheduling.
	ahead stretch
}

// stretch is a run-ahead stretch in progress: the steady decode batch
// every step runs and the part of its cost every step shares, how far
// it may still run, and the steps booked on the clock and counters but
// not yet settled into the running sequences' decoded counts and KV
// holdings.
type stretch struct {
	par perf.Parallelism
	// base is the batch-size part of every step's cost (perf.IterBase):
	// the batch's size and parallelism do not change within a stretch,
	// so each step prices only its attention.
	base perf.Cost
	// left is the steps the stretch may still book; 0 means no stretch.
	left int
	// next is the engine's next arrival when the stretch began (-1: none).
	// Only enqueue adds arrivals, and it ends the stretch.
	next time.Duration
	// ctxSum is the running sequences' summed context before the first
	// unsettled step; booked is the count of unsettled steps.
	ctxSum, booked int
}

// NewEngine builds an engine; the KV block pool is sized by the cost
// model's KVCapacityTokens (weights, the shift copy under the cost
// model's memory strategy, reserve), rounded down to whole blocks.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Clone the cost model so SwiftKV's prefill factor stays local.
	cm := *cfg.CM
	cm.PrefillFlopsFactor = cfg.Stack.PrefillFactor()
	cfg.CM = &cm

	shift := cfg.Strategy == StrategyShift
	capTokens := cfg.CM.KVCapacityTokens(cfg.Par, cfg.EP, shift)
	if capTokens <= 0 {
		return nil, fmt.Errorf("serve: engine %q: model does not fit (%s, shift=%v)", cfg.Name, cfg.Par, shift)
	}
	e := &Engine{
		cfg:    cfg,
		blocks: newBlockPool(cfg.BlockTokens, capTokens/cfg.BlockTokens),
	}
	if pc := cfg.PrefixCache; pc != nil {
		capTok := pc.CapacityTokens
		if capTok == 0 {
			capTok = e.KVCapacityTokens()
		}
		e.pcache = newLRU(capTok, 0)
	}
	if cfg.Admission.enabled() {
		e.admission = &admissionState{policy: cfg.Admission.Policy}
	}
	return e, nil
}

// KVCapacityTokens returns the engine's KV budget in tokens: every
// block of its pool, used or free.
func (e *Engine) KVCapacityTokens() int { return e.blocks.numBlocks * e.blocks.blockTokens }

// attachStream points the engine's hooks at an obs stream; nil keeps
// the untraced fast path.
func (e *Engine) attachStream(s *obs.Stream) { e.stream = s }

// Run simulates the engine over the trace portion assigned to it and
// returns per-request metrics. Requests must be time-ordered.
func (e *Engine) Run(reqs []workload.Request) []RequestMetrics {
	e.reserve(len(reqs))
	for _, r := range reqs {
		e.enqueue(r)
	}
	e.stepUntil(noHorizon, true)
	return e.appendMetrics(make([]RequestMetrics, 0, len(e.completed)+len(e.rejected)))
}

// reserve pre-sizes the arrivals, the first slab block and the
// completion list for an expected share of n requests, so none of them
// grows by doubling.
func (e *Engine) reserve(n int) {
	if cap(e.arrivals) == 0 {
		e.arrivals = make([]*seq, 0, n)
	}
	if cap(e.slab) == 0 {
		e.slab = make([]seq, 0, n)
	}
	if cap(e.completed) == 0 {
		e.completed = make([]*seq, 0, n)
	}
}

// seqBlock is the record count of every slab block after the first.
const seqBlock = 64

// enqueue builds the engine's record of one routed request, appends it
// to the arrivals (arrival order is the caller's contract) and puts the
// request on the backlog.
func (e *Engine) enqueue(r workload.Request) {
	e.endStretch()
	if len(e.slab) == cap(e.slab) {
		e.slab = make([]seq, 0, seqBlock)
	}
	e.slab = e.slab[:len(e.slab)+1]
	s := &e.slab[len(e.slab)-1]
	s.req, s.effInput, s.firstTok = r, r.InputTokens, -1
	e.arrivals = append(e.arrivals, s)
	e.backlogTokens += r.TotalTokens()
}

// reject gives up on s with reason and takes it off the backlog.
func (e *Engine) reject(s *seq, reason RejectReason) {
	s.rejectReason = reason
	e.rejected = append(e.rejected, s)
	e.backlogTokens -= s.req.TotalTokens()
	e.stream.Event(e.now, obs.EvReject, s.req.ID, string(reason))
}

// finished reports whether the engine has drained all work.
func (e *Engine) finished() bool {
	return e.nextIdx >= len(e.arrivals) && e.waiting.len() == 0 && len(e.running) == 0
}

// admit moves arrivals up to the current time into the waiting queue,
// filling in what their records learn at admission: the prefix served
// from cache, which counts as prefilled.
func (e *Engine) admit() {
	for e.nextIdx < len(e.arrivals) && e.arrivals[e.nextIdx].req.Arrival <= e.now {
		s := e.arrivals[e.nextIdx]
		r := &s.req
		cached := int(e.cfg.PrefixCacheHitRate * float64(r.InputTokens))
		if e.pcache != nil {
			// Measured path: a hit requires this replica to have served
			// the key before. Keyless requests always miss and are not
			// inserted — they have no reusable prefix.
			cached = 0
			if key := r.CacheKey(); key != "" && e.pcache.access(key, r.InputTokens) {
				e.cacheHits++
				cached = int(e.cfg.PrefixCache.ShareFraction * float64(r.InputTokens))
			} else {
				e.cacheMisses++
			}
		}
		if cached > r.InputTokens-1 {
			// At least the prompt's last token always runs (vLLM APC).
			cached = r.InputTokens - 1
		}
		if e.pcache != nil {
			e.cacheCachedTokens += cached
		}
		s.cached, s.prefilled = cached, cached
		e.waiting.pushBack(s)
		e.stream.Event(r.Arrival, obs.EvEnqueue, r.ID, "")
		if r.Priority != 0 || r.SLO != nil {
			e.sloAware = true
		}
		e.nextIdx++
	}
}

// awaitsWork reports whether an engine with nothing to schedule is just
// waiting for the controller to route more work: nothing runs, nothing
// routed is pending, and final has not promised that no more will come.
func (e *Engine) awaitsWork(final bool) bool {
	return !final && len(e.running) == 0 && e.nextArrival() < 0
}

// nextArrival returns the next arrival time, or -1 when exhausted.
func (e *Engine) nextArrival() time.Duration {
	if e.nextIdx >= len(e.arrivals) {
		return -1
	}
	return e.arrivals[e.nextIdx].req.Arrival
}

// nextPlan is the engine's plan step: it admits the arrivals due at
// e.now and schedules the next iteration, resolving memory-stuck and
// unadmittable states until it finds one. An empty plan means nothing
// can run at e.now: a resolve finished the engine, the engine awaits
// routed work (final unset), or it idles until its next arrival.
// stepUntil and lockstep fleets both plan through it.
func (e *Engine) nextPlan(final bool) batchPlan {
	for {
		e.admit()
		plan := e.schedule()
		if !plan.empty() || e.awaitsWork(final) || !e.resolveEmpty() || e.finished() {
			return plan
		}
	}
}

// resolveEmpty handles an empty schedule: preempt or reject when the
// engine is memory-stuck, reject the waiters an empty engine cannot
// admit when no arrivals remain. Returns true if it changed state
// (caller should re-schedule).
func (e *Engine) resolveEmpty() bool {
	if len(e.running) > 1 {
		// Memory-stuck: every runner blocked on KV growth. Preempt the
		// victim (youngest; lowest-priority first under SLO scheduling)
		// to unblock the others.
		e.preemptAt(e.victimAfter(-1))
		return true
	}
	if len(e.running) == 1 {
		// A lone runner that cannot grow needs more KV than the engine
		// has: reject it.
		s := e.running[0]
		e.blocks.release(&s.kvBlocks)
		e.running = nil
		e.reject(s, RejectKVExhausted)
		return true
	}
	if e.nextArrival() < 0 && e.waiting.len() > 0 {
		// Nothing runs and nothing arrives, so the engine is as empty as
		// it gets: a waiter it cannot admit now never will be (its prompt
		// needs more than the cache above the watermark). Reject those
		// and let the ones queued behind them schedule.
		rejected := false
		for i := 0; i < e.waiting.len(); {
			if s := e.waiting.at(i); !e.canAdmit(s, e.cfg.ChunkBudget, e.watermark()) {
				e.waiting.removeAt(i)
				e.reject(s, RejectUnservablePrompt)
				rejected = true
				continue
			}
			i++
		}
		return rejected
	}
	return false
}

// batchPlan is one scheduled iteration.
type batchPlan struct {
	prefills   []*seq
	chunks     []int // new prompt tokens per prefill seq
	decodes    []*seq
	specTokens int // verify tokens per decode seq (1 without spec decode)
	par        perf.Parallelism
}

func (b batchPlan) empty() bool { return len(b.prefills) == 0 && len(b.decodes) == 0 }

// urgentDemand is one at-risk waiter's reserved prefill budget (step 2).
type urgentDemand struct{ prio, chunk int }

// schedule builds the next iteration following vLLM's chunked-prefill
// policy: decodes first (one token per running sequence), then prefill
// chunks up to the token budget, admitting waiting requests while KV
// blocks remain.
func (e *Engine) schedule() batchPlan {
	if e.admission != nil {
		e.shedPass()
	}

	plan := batchPlan{
		specTokens: e.cfg.Stack.Spec.VerifyTokensPerSeq(),
		prefills:   e.planPrefills[:0],
		chunks:     e.planChunks[:0],
		decodes:    e.planDecodes[:0],
	}

	// 0. SLO scheduling (no-op until a request carries Priority/SLO):
	// order the waiting queue by urgency and priority, and claim KV from
	// strictly-lower-priority running work when an at-risk request could
	// not otherwise be admitted this iteration.
	if e.sloAware {
		e.orderRunning()
		e.orderWaiting()
		e.preemptForUrgent()
		e.orderWaiting() // urgency-preemption victims re-queue in order
	}

	// 1. Decode slots for running sequences that finished prefill; grow
	// their KV allocation under pressure by preempting victims from the
	// unprocessed tail of the running queue (vLLM's recompute policy).
	for i := 0; i < len(e.running); {
		s := e.running[i]
		if !s.prefillDone() {
			i++
			continue
		}
		// Victims never outrank s: in SLO mode orderRunning sorted the
		// queue by descending priority, so the tail is s's peers or work
		// it outranks; in FIFO mode priorities are all equal.
		need := s.ctx() + plan.specTokens
		for !e.blocks.canGrow(s.kvBlocks, need) && len(e.running)-1 > i {
			e.preemptAt(e.victimAfter(i))
		}
		if !e.blocks.canGrow(s.kvBlocks, need) {
			// No eligible victim remains — s is the youngest candidate,
			// or (under SLO scheduling) the surviving tail outranks it —
			// so preempt s itself. The slot at i now holds the next
			// sequence (or nothing).
			e.preemptAt(i)
			continue
		}
		e.blocks.grow(&s.kvBlocks, need)
		plan.decodes = append(plan.decodes, s)
		i++
	}

	if e.sloAware {
		// Step-1 victims were prepended to waiting; restore priority
		// order so reservation and admission see the queue sorted.
		e.orderWaiting()
	}

	budget := e.cfg.ChunkBudget - len(plan.decodes)*plan.specTokens
	// Freeze the watermark before admissions mutate len(running): step 3
	// must judge every admission against the same floor.
	watermark := e.watermark()

	// 2. Prefill chunks for running sequences still in prefill,
	// allocating blocks incrementally (vLLM chunked prefill). Under SLO
	// scheduling, higher-priority prefills consume the budget first, and
	// enough budget is reserved for at-risk (urgent) waiters that
	// strictly-lower-priority prefills cannot crowd them out of step 3 —
	// they still use whatever budget the reservation leaves over.
	urgents := e.urgentsBuf[:0]
	if e.sloAware {
		// Reserve only for at-risk waiters step 3 could actually admit,
		// and never more than the iteration has left — otherwise large
		// blocked urgents would stall lower-priority prefills for budget
		// nobody can spend.
		// Earlier reservations consume budget and blocks: judge each
		// waiter against what would remain, by shrinking the budget and
		// raising the watermark by the blocks already spoken for.
		reserved, reservedBlocks := 0, 0
		for _, w := range e.waiting.seqs() { // priority-ordered: best waiters reserve first
			if !e.atRisk(w) || !e.canAdmit(w, budget-reserved, watermark+reservedBlocks) {
				continue
			}
			chunk := min(w.effInput-w.prefilled, budget-reserved)
			if chunk <= 0 {
				break
			}
			urgents = append(urgents, urgentDemand{w.req.Priority, chunk})
			reserved += chunk
			reservedBlocks += e.blocks.need(w.kvBlocks, w.prefilled+chunk)
		}
	}
	// orderRunning already put higher-priority prefills first in SLO mode.
	for _, s := range e.running {
		if s.prefillDone() || budget <= 0 {
			continue
		}
		// Each runner only yields budget to urgent waiters that outrank
		// it — reserving for lower-priority urgent work would invert
		// priorities.
		avail := budget
		for _, u := range urgents {
			if u.prio > s.req.Priority {
				avail -= u.chunk
			}
		}
		if avail <= 0 {
			continue
		}
		chunk := min(s.effInput-s.prefilled, avail)
		if !e.blocks.canGrow(s.kvBlocks, s.prefilled+chunk) {
			slack := int(s.kvBlocks)*e.blocks.blockTokens - s.prefilled
			chunk = min(chunk, slack+e.blocks.freeTokens())
			if chunk <= 0 {
				continue // KV pressure: wait for blocks
			}
		}
		e.blocks.grow(&s.kvBlocks, s.prefilled+chunk)
		plan.prefills = append(plan.prefills, s)
		plan.chunks = append(plan.chunks, chunk)
		budget -= chunk
	}

	// 3. Admit waiting requests while budget and KV blocks (above the
	// watermark) remain; prompts larger than the whole cache are
	// rejected. The FIFO engine stops at the first blocked waiter
	// (head-of-line, vLLM semantics). SLO scheduling skips past a
	// blocked waiter, but only equal/higher-priority or at-risk waiters
	// may actually be admitted past it — letting ordinary lower-priority
	// traffic through would starve the blocked request indefinitely
	// under sustained load.
	blockedPrio, anyBlocked := 0, false
	for i := 0; i < e.waiting.len() && budget > 0 && len(e.running) < e.cfg.MaxSeqs; {
		s := e.waiting.at(i)
		if e.blocks.need(0, s.effInput) > e.blocks.numBlocks {
			e.waiting.removeAt(i)
			e.reject(s, RejectUnservablePrompt)
			continue
		}
		if !e.canAdmit(s, budget, watermark) {
			if !e.sloAware {
				break // wait for blocks to free up
			}
			if !anyBlocked || s.req.Priority > blockedPrio {
				anyBlocked, blockedPrio = true, s.req.Priority
			}
			i++
			continue
		}
		if anyBlocked && s.req.Priority < blockedPrio && !e.atRisk(s) {
			// Only deadline rescues may pass a blocked higher-priority
			// waiter.
			i++
			continue
		}
		chunk := min(s.effInput-s.prefilled, budget)
		e.blocks.grow(&s.kvBlocks, s.prefilled+chunk)
		e.waiting.removeAt(i)
		e.running = append(e.running, s)
		e.stream.Event(e.now, obs.EvAdmit, s.req.ID, "")
		plan.prefills = append(plan.prefills, s)
		plan.chunks = append(plan.chunks, chunk)
		budget -= chunk
	}
	// Hand the (possibly regrown) buffers back for the next iteration.
	e.planPrefills, e.planChunks, e.planDecodes = plan.prefills, plan.chunks, plan.decodes
	e.urgentsBuf = urgents
	return plan
}

// estFirstToken projects when a waiting sequence would emit its first
// token if admitted behind ahead prefill tokens, using the engine's
// measured mean iteration time. Before the first iteration there is no
// measurement and the projection is now — only already-missed deadlines
// are judged infeasible.
func (e *Engine) estFirstToken(s *seq, ahead int) time.Duration {
	if e.iters == 0 {
		return e.now
	}
	avg := e.cost.Total() / time.Duration(e.iters)
	need := ahead + s.effInput - s.prefilled
	iters := (need + e.cfg.ChunkBudget - 1) / e.cfg.ChunkBudget
	if iters < 1 {
		iters = 1
	}
	return e.now + time.Duration(iters)*avg
}

// shedPass applies the admission policy to the waiting queue: waiters
// whose projected first token misses their TTFT deadline are shed with
// RejectShed (under AdmissionProjected, only while the queue-wide
// projected attainment is inside the hysteresis band). Runs before the
// iteration plans, so shed requests free their queue slots the same
// tick. Requests without a TTFT deadline — and preempted sequences that
// already emitted a first token — are never shed.
func (e *Engine) shedPass() {
	st := e.admission
	w := e.waiting.seqs()
	if len(w) == 0 {
		st.shedding = false // an empty queue is fully attained
		return
	}
	// Prefill work already admitted runs ahead of every waiter.
	ahead := 0
	for _, s := range e.running {
		if !s.prefillDone() {
			ahead += s.effInput - s.prefilled
		}
	}
	flags := e.shedFlags[:0]
	total, infeasible := 0, 0
	for _, s := range w {
		bad := false
		if s.firstTok < 0 && s.req.SLO != nil && s.req.SLO.TTFT > 0 && s.req.SLO.TTFT != workload.NoDeadline {
			total++
			deadline := s.req.SubmittedAt() + s.req.SLO.TTFT
			if e.estFirstToken(s, ahead) > deadline {
				bad = true
				infeasible++
			}
		}
		flags = append(flags, bad)
		ahead += s.effInput - s.prefilled
	}
	e.shedFlags = flags
	shed := false
	switch st.policy {
	case AdmissionDeadline, AdmissionShedOrBuy:
		shed = true
	case AdmissionProjected:
		att := 1.0
		if total > 0 {
			att = float64(total-infeasible) / float64(total)
		}
		if st.shedding {
			if att >= admissionRelax {
				st.shedding = false
			}
		} else if att < admissionTarget {
			st.shedding = true
		}
		shed = st.shedding
	}
	if !shed || infeasible == 0 {
		return
	}
	// Walk the live queue with a write index so sheds land in queue
	// order; flags[i] corresponds to the original queue position i.
	divert := st.policy == AdmissionShedOrBuy && e.buyDivert
	j := 0
	for i := range flags {
		if !flags[i] {
			j++
			continue
		}
		s := e.waiting.at(j)
		e.waiting.removeAt(j)
		e.backlogTokens -= s.req.TotalTokens()
		if divert {
			// Stage for the cloud offer; shed accounting happens only if
			// the cloud refuses (shedStaged).
			e.cloudShed = append(e.cloudShed, cloudShedEntry{s: s, at: e.now})
			continue
		}
		e.shedStaged(s, e.now)
	}
}

// takeCloudShed returns and clears the engine's staged shed-or-buy
// waiters (always empty unless buyDivert was set by a cloud-attached
// run).
func (e *Engine) takeCloudShed() []cloudShedEntry {
	s := e.cloudShed
	e.cloudShed = nil
	return s
}

// shedStaged rejects a waiter the shed pass already took off the queue
// and the backlog with RejectShed: a plain shed, or a staged shed-or-buy
// waiter the cloud refused, which ends exactly as if it had never been
// staged.
func (e *Engine) shedStaged(s *seq, at time.Duration) {
	s.rejectReason = RejectShed
	e.rejected = append(e.rejected, s)
	e.shed++
	e.shedTokens += s.req.TotalTokens()
	e.stream.Event(at, obs.EvShed, s.req.ID, string(RejectShed))
}

// preemptAt applies vLLM's recompute preemption to running[i]: the
// sequence loses its KV blocks and will re-prefill its prompt plus
// already-generated tokens, from the head of the waiting queue. The
// re-queue is an O(1) push-front (see waitQueue) — a preemption storm
// used to reallocate the whole waiting queue per victim.
func (e *Engine) preemptAt(i int) {
	s := e.running[i]
	e.blocks.release(&s.kvBlocks)
	s.effInput = s.req.InputTokens + int(s.decoded)
	// Recompute restarts after the (still resident) cached prefix.
	s.prefilled = s.cached
	s.preempted++
	e.preemptions++
	e.running = append(e.running[:i], e.running[i+1:]...)
	e.waiting.pushFront(s)
	e.stream.Event(e.now, obs.EvPreempt, s.req.ID, "")
}

// victimAfter picks the preemption victim among running[after+1:]. The
// FIFO engine always evicts the youngest (highest index); SLO-aware
// scheduling evicts the lowest-priority sequence instead, still taking
// the youngest among equals — so equal priorities reproduce the
// historical choice exactly.
func (e *Engine) victimAfter(after int) int {
	if !e.sloAware {
		return len(e.running) - 1
	}
	best := -1
	for i := after + 1; i < len(e.running); i++ {
		if best < 0 || e.running[i].req.Priority <= e.running[best].req.Priority {
			best = i
		}
	}
	return best
}

// orderWaiting sorts the waiting queue for SLO-aware scheduling: higher
// Priority first, at-risk TTFT deadlines first within a priority band,
// then the existing FIFO/recompute order (the sort is stable, so equal
// keys keep today's order). Priority outranks urgency so loose-deadline
// batch work that has waited long enough to turn urgent can never jump
// ahead of interactive traffic.
// The urgency key is time-dependent, so sortedness is re-checked with a
// linear scan each call instead of a dirty flag; the scan skips the
// stable sort on the common already-ordered queue (a stable sort of a
// sorted slice is the identity, so skipping it changes nothing).
func (e *Engine) orderWaiting() {
	w := e.waiting.seqs()
	for i := 1; i < len(w); i++ {
		if e.waitOrder(w[i], w[i-1]) < 0 {
			slices.SortStableFunc(w, e.waitOrder)
			return
		}
	}
}

// waitOrder compares two waiters on orderWaiting's key: Priority
// descending, then at-risk before not.
func (e *Engine) waitOrder(sa, sb *seq) int {
	if c := cmp.Compare(sb.req.Priority, sa.req.Priority); c != 0 {
		return c
	}
	switch ra, rb := e.atRisk(sa), e.atRisk(sb); {
	case ra && !rb:
		return -1
	case rb && !ra:
		return 1
	}
	return 0
}

// orderRunning sorts the running queue by descending Priority (stable,
// so FIFO order holds among equals — and the FIFO engine's order is
// untouched when every priority matches). With low-priority work at the
// tail, victimAfter's tail scan finds it first, and step 2 hands prefill
// budget to high-priority sequences before low ones.
// A linear sortedness scan skips the stable sort on the common
// already-ordered queue (admission appends are the only way order
// breaks; removals and retirements preserve it).
func (e *Engine) orderRunning() {
	for i := 1; i < len(e.running); i++ {
		if e.running[i].req.Priority > e.running[i-1].req.Priority {
			slices.SortStableFunc(e.running, func(a, b *seq) int {
				return cmp.Compare(b.req.Priority, a.req.Priority)
			})
			return
		}
	}
}

// atRisk reports whether a waiting sequence's TTFT can still be saved:
// its deadline is urgent and it has not produced a first token — a
// preempted-and-requeued sequence that already emitted one keeps its
// recorded TTFT, so rescuing it buys nothing.
func (e *Engine) atRisk(s *seq) bool { return s.firstTok < 0 && s.req.Urgent(e.now) }

// watermark is the free-block floor admission must preserve: base
// headroom plus decode-growth demand of the current runners, so
// incremental prefill admission does not trigger preemption storms when
// decodes need to grow.
func (e *Engine) watermark() int {
	return e.blocks.numBlocks/100 + 2*len(e.running)
}

// preemptForUrgent preempts strictly-lower-priority running work when
// the most urgent waiting request (TTFT deadline at risk) could not be
// admitted under the KV watermark or MaxSeqs cap this iteration —
// interactive traffic claims resources from batch traffic instead of
// queueing behind it. Requests with NoDeadline are never urgent, so they
// never trigger preemption here.
func (e *Engine) preemptForUrgent() {
	// The queue is priority-ordered, so a higher-priority (not yet
	// urgent) head must not mask an at-risk waiter behind it: rescue the
	// highest-priority at-risk one.
	var w *seq
	for _, s := range e.waiting.seqs() {
		if e.atRisk(s) {
			w = s
			break
		}
	}
	if w == nil {
		return
	}
	if e.blocks.need(0, w.effInput) > e.blocks.numBlocks {
		return // unservable prompt: step 3 rejects it, evictions buy nothing
	}
	for {
		if e.canAdmit(w, e.cfg.ChunkBudget, e.watermark()) {
			return // admissible now
		}
		v := e.victimAfter(-1)
		if v < 0 || e.running[v].req.Priority >= w.req.Priority {
			return // nothing strictly cheaper to evict
		}
		e.preemptAt(v)
		e.sloPreempts++
	}
}

// canAdmit is the single admission predicate: s's next prefill chunk
// (under the given chunk budget; blocks must cover any prefix-cache hit
// plus the chunk) must fit in free KV above the watermark with a
// running slot available. Step 3 calls it with the iteration's
// remaining budget and frozen watermark; preemptForUrgent calls it with
// the full ChunkBudget and live watermark as a pre-plan estimate.
func (e *Engine) canAdmit(s *seq, budget, watermark int) bool {
	chunk := min(s.effInput-s.prefilled, budget)
	return e.blocks.free-e.blocks.need(s.kvBlocks, s.prefilled+chunk) >= watermark && len(e.running) < e.cfg.MaxSeqs
}

// shape converts a plan to the cost model's batch description.
func (plan batchPlan) shape() perf.Batch {
	shape := perf.Batch{}
	for i, s := range plan.prefills {
		c := plan.chunks[i]
		shape.PrefillTokens += c
		shape.PrefillCtx += float64(s.prefilled) + float64(c)/2
	}
	if len(plan.prefills) > 0 {
		shape.PrefillCtx /= float64(len(plan.prefills))
	}
	shape.DecodeSeqs = len(plan.decodes) * plan.specTokens
	for _, s := range plan.decodes {
		shape.DecodeCtx += float64(s.ctx())
	}
	if len(plan.decodes) > 0 {
		shape.DecodeCtx /= float64(len(plan.decodes))
	}
	return shape
}

// price selects the parallelism (Algorithm 2), records it on the plan,
// and prices the iteration.
func (e *Engine) price(plan *batchPlan) perf.Cost {
	shape := plan.shape()
	plan.par = e.parFor(shape)
	return e.priceShape(plan.par, shape)
}

// priceShape prices one iteration of shape on par starting at now,
// applying any active degrade window.
func (e *Engine) priceShape(par perf.Parallelism, shape perf.Batch) perf.Cost {
	cost := e.cfg.CM.IterEP(par, e.cfg.EP, shape)
	if e.degraded(e.now) {
		cost = cost.Scale(e.slowFactor)
	}
	return cost
}

// degraded reports whether an iteration starting at t runs inside the
// degrade window, slowFactor times slower.
func (e *Engine) degraded(t time.Duration) bool {
	return e.slowFactor > 1 && t >= e.slowFrom && t < e.slowUntil
}

// setDegrade arms a degrade window: iterations starting inside
// [from, until) run factor times slower.
func (e *Engine) setDegrade(factor float64, from, until time.Duration) {
	e.endStretch()
	e.slowFactor, e.slowFrom, e.slowUntil = factor, from, until
}

// crashDrain kills the engine mid-run: every admitted sequence and
// every routed-but-unarrived request is lost. It returns the lost
// requests (running first, then waiting, then future arrivals — each
// group in queue order) plus the computed-and-discarded token count,
// releases all KV blocks (only running sequences hold any), and leaves
// the engine drained with an empty backlog (finished() holds until new
// arrivals are routed to it). Also used to flush the black-holed
// arrivals a down replica accumulated before ejection.
func (e *Engine) crashDrain() (lost []workload.Request, lostTokens int) {
	e.endStretch()
	for _, s := range e.running {
		lostTokens += s.ctx() - s.cached
		e.blocks.release(&s.kvBlocks)
		lost = append(lost, s.req)
	}
	e.running = nil
	for _, s := range e.waiting.seqs() {
		lost = append(lost, s.req)
	}
	e.waiting.clear()
	for _, s := range e.arrivals[e.nextIdx:] {
		lost = append(lost, s.req)
	}
	e.arrivals = e.arrivals[:0:0]
	e.nextIdx = 0
	e.backlogTokens = 0
	if e.pcache != nil {
		// The crash wiped the replica's KV, and the cached prefixes with
		// it: a restarted replica starts cold.
		e.pcache.clear()
	}
	return lost, lostTokens
}

// apply executes one priced iteration ending at end: advances the clock,
// applies token production, and retires finished sequences. In lockstep
// fleets end may exceed now+cost (waiting for slower replicas).
func (e *Engine) apply(plan batchPlan, cost perf.Cost, end time.Duration) {
	e.plans++
	e.count(plan.par, 1, cost)
	e.now = end

	// Between steps no running sequence is done (every pass that can
	// finish one retires it), so only the plan's sequences can finish
	// here, and the running queue is scanned only if one did.
	produced, finished := 0, false
	for i, s := range plan.prefills {
		s.prefilled += plan.chunks[i]
		produced += plan.chunks[i]
		if s.prefillDone() {
			// The prefill iteration emits the first output token.
			s.decoded++
			produced++
			if s.firstTok < 0 {
				s.firstTok = e.now
			}
			e.stream.Event(e.now, obs.EvPrefillDone, s.req.ID, "")
			finished = finished || s.done()
		}
	}
	yield := e.cfg.Stack.Spec.TokensPerStep()
	for _, s := range plan.decodes {
		before := int(s.decoded)
		s.decoded += yield
		if int(s.decoded) > s.req.OutputTokens {
			s.decoded = float64(s.req.OutputTokens)
		}
		produced += int(s.decoded) - before
		finished = finished || s.done()
	}
	e.tokensServed += produced
	if finished {
		e.retire()
	}
	e.stream.Iter(e.now, produced)
}

// retire moves the running sequences that are done, in running order,
// to the completed list at e.now and frees their KV blocks.
func (e *Engine) retire() {
	e.retirePasses++
	kept := e.running[:0]
	for _, s := range e.running {
		if s.done() {
			e.complete(s)
		} else {
			kept = append(kept, s)
		}
	}
	e.running = kept
}

// complete books the done sequence s as finished at e.now and frees its
// KV blocks; the caller takes it off the running queue.
func (e *Engine) complete(s *seq) {
	s.finished = e.now
	e.blocks.release(&s.kvBlocks)
	e.completed = append(e.completed, s)
	e.backlogTokens -= s.req.TotalTokens()
	e.completedTokens += s.req.TotalTokens()
	e.stream.Event(e.now, obs.EvFinish, s.req.ID, "")
}

// count books k iterations run on par that cost cost in total.
func (e *Engine) count(par perf.Parallelism, k int, cost perf.Cost) {
	if par == e.cfg.Par {
		e.baseIters += k
	} else {
		e.shiftIters += k
	}
	e.iters += k
	e.cost = e.cost.Add(cost)
}

// stepUntil is the engine loop: admission, schedule, price, apply, until
// the engine drains, never starting an iteration at or past the horizon
// — so the serving controller can inject routed arrivals and scaling
// decisions at event boundaries without perturbing engine behaviour.
// final promises that no further arrivals will be appended, enabling the
// end-of-trace rejection of unadmittable waiters; without it an idle
// engine parks at the horizon and waits for the controller. Before it
// schedules anything, runAhead books the steady decode steps the engine
// state allows without scheduling them one by one, resuming a stretch an
// earlier horizon cut.
func (e *Engine) stepUntil(horizon time.Duration, final bool) {
	for !e.finished() && e.now < horizon {
		if e.runAhead(horizon) {
			continue
		}
		plan := e.nextPlan(final)
		if plan.empty() {
			if e.finished() {
				// A resolve drained the last work: the clock stays where
				// it finished (a draining replica retires at it).
				return
			}
			// Otherwise nothing runs, so an arrival is pending unless
			// the engine awaits routed work; park at the horizon if it
			// comes no sooner.
			if a := e.nextArrival(); !e.awaitsWork(final) && a < horizon {
				e.now = a
				continue
			}
			e.now = horizon
			return
		}
		cost := e.price(&plan)
		e.apply(plan, cost, e.now+cost.Total())
	}
}

// runAhead resumes the open stretch, or starts one when the engine's
// next iteration would be a steady decode of every runner: something
// runs, nothing waits, no arrival is due, every runner has finished
// prefill, spec decoding is off and the KV growth fits. It reports
// whether it booked any steps. schedule would do nothing on such an
// iteration but grow each holding by a token (and, under SLO
// scheduling, order the running queue, which runAhead does once: the
// queue cannot change within a stretch). So runAhead prices the
// batch-size part of the cost (perf.IterBase) once for the whole
// stretch, each step prices only its attention (perf.IterAttn), and
// each sequence's decoded count and KV holding are settled once, when
// the stretch ends. The stretch runs through the step on which its
// first sequences finish, where settle retires them, or ends before the
// first step whose KV growth would not fit. The results are
// bit-identical to scheduling every step:
//   - step k's mean decode context is (ctxSum + k·n)/n, and shape's
//     float sum of integer contexts below 2^53 is exact, so it equals
//     that bit for bit;
//   - IterEP is IterBase with IterAttn's Attn, bit for bit;
//   - cost components are integer sums, so their order does not matter,
//     and k steps' base equals base.Times(k);
//   - degrade windows apply per step, at that step's clock.
//
// A stretch the horizon cuts stays open in e.ahead, and the next
// stepUntil resumes it: a resumed step is exactly the steady iteration
// schedule would rebuild, as long as nothing touched the engine since
// the cut. enqueue, crashDrain and setDegrade are the only calls that
// touch it from outside, and each ends the stretch first.
//
// Any per-iteration engine state added later must be settled in settle
// too, or must end the stretch. Spec decoding keeps one iteration per
// pass: its fractional yield changes the tokens produced from step to
// step.
func (e *Engine) runAhead(horizon time.Duration) bool {
	if e.ahead.left == 0 {
		n := len(e.running)
		if n == 0 || e.waiting.len() > 0 || e.cfg.Stack.Spec.Enabled() {
			return false
		}
		if a := e.nextArrival(); a >= 0 && a <= e.now {
			return false
		}
		steps, ctxSum := math.MaxInt, 0
		for _, s := range e.running {
			if !s.prefillDone() {
				return false // a runner blocked in prefill, not a steady batch
			}
			steps = min(steps, s.req.OutputTokens-int(s.decoded))
			ctxSum += s.ctx()
		}
		// Growth is monotone in the step count, so if the stretch's last
		// step fits in the free blocks no earlier one would have preempted.
		if free := e.blocks.free; e.kvGrowth(steps) > free {
			steps = sort.Search(steps, func(k int) bool { return e.kvGrowth(k) > free }) - 1
		}
		if steps <= 0 {
			// The first step would preempt. kvGrowth(0) can be positive:
			// the token a prefill emits has no block until the next
			// decode grows the holding.
			return false
		}
		if e.sloAware {
			e.orderRunning()
		}
		shape := perf.Batch{DecodeSeqs: n}
		par := e.parFor(shape)
		e.ahead = stretch{par: par, base: e.cfg.CM.IterBase(par, e.cfg.EP, shape),
			left: steps, next: e.nextArrival(), ctxSum: ctxSum}
	}
	e.resume(horizon)
	return true
}

// resume books the open stretch's steps until it runs out, an arrival
// is due or the clock reaches horizon. Only the horizon leaves it open.
// Each step prices only its attention and advances the clock by the
// stretch's base plus that; a step that starts inside the degrade
// window scales its whole cost. The counters and the accumulated cost
// are booked once, after the loop: the plain steps' base times their
// count, plus every plain step's attention and every scaled step's cost.
func (e *Engine) resume(horizon time.Duration) {
	a := &e.ahead
	// The loop keeps its state in locals: the calls in it would make the
	// compiler reload and store fields of e and e.ahead on every step.
	n, par, base, left, next, now := len(e.running), a.par, a.base, a.left, a.next, e.now
	cm, step := e.cfg.CM, base.Total()
	ctx := a.ctxSum + a.booked*n
	shape := perf.Batch{DecodeSeqs: n}
	var cost perf.Cost // the scaled steps' costs and the plain steps' attention
	k, plain := 0, 0
	for ; k < left && now < horizon && (next < 0 || next > now); k++ {
		shape.DecodeCtx = float64(ctx+k*n) / float64(n)
		attn := cm.IterAttn(par, shape)
		if e.degraded(now) {
			c := base
			c.Attn = attn
			c = c.Scale(e.slowFactor)
			cost = cost.Add(c)
			now += c.Total()
		} else {
			plain++
			cost.Attn += attn
			now += step + attn
		}
		e.stream.Iter(now, n)
	}
	e.now = now
	e.count(par, k, cost.Add(base.Times(plain)))
	a.left -= k
	a.booked += k
	if a.booked > 0 && e.admission != nil {
		// Every skipped shed pass saw an empty queue.
		e.admission.shedding = false
	}
	// Only a horizon cut leaves the stretch open.
	if a.left == 0 || e.now < horizon || a.next >= 0 && a.next <= e.now {
		e.endStretch()
	}
}

// settle books the open stretch's unsettled steps into each running
// sequence's decoded count and KV holding. Every reader of per-sequence
// or block-pool state outside the step calls it first. A stretch that
// has run out ends on the step its first sequences finish on (unless KV
// growth cut it shorter), so settle retires the finished ones at e.now,
// in running order as apply would have, in the same pass that grows the
// others' holdings; any other stretch stays open, and none of its
// sequences is done.
func (e *Engine) settle() {
	a := &e.ahead
	k := a.booked
	if k == 0 {
		return
	}
	n := len(e.running)
	e.tokensServed += k * n
	// Compact in place, storing a pointer only where one moved: most
	// stretch ends retire nothing, and every store is a write barrier
	// while the collector marks.
	j := 0
	for i, s := range e.running {
		s.decoded += float64(k)
		if s.done() {
			e.complete(s)
			continue
		}
		e.blocks.grow(&s.kvBlocks, s.ctx())
		if j != i {
			e.running[j] = s
		}
		j++
	}
	e.running = e.running[:j]
	a.ctxSum += k * n
	a.booked = 0
}

// endStretch settles the open stretch, if any, and closes it, so the
// next stepUntil schedules.
func (e *Engine) endStretch() {
	e.settle()
	e.ahead = stretch{}
}

// kvGrowth returns the blocks the running sequences need beyond their
// holdings to decode k more tokens each.
func (e *Engine) kvGrowth(k int) int {
	need := 0
	for _, s := range e.running {
		need += e.blocks.need(s.kvBlocks, s.ctx()+k)
	}
	return need
}

// parFor applies Algorithm 2 (perf.UsesShift) at the engine level.
func (e *Engine) parFor(shape perf.Batch) perf.Parallelism {
	if e.cfg.Strategy != StrategyShift || !perf.UsesShift(shape.Tokens(), e.cfg.ShiftThreshold) {
		return e.cfg.Par
	}
	return perf.Parallelism{SP: 1, TP: e.cfg.Par.World()}
}
