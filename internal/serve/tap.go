// Engine observation tap: the single nil-gated attachment point for
// the engine's obs stream, which receives its request lifecycle events
// and one throughput record per iteration. An engine with a nil tap is
// the untraced fast path: every hook is one pointer compare on a nil
// receiver and allocates nothing (pinned by
// TestDisabledTraceHookAllocates0 and BenchmarkSimulator_DisabledTraceHook).
package serve

import (
	"time"

	"repro/internal/obs"
)

// engineTap carries an engine's observation sink. It exists (is
// non-nil) only when the run attached an observer.
type engineTap struct {
	// stream receives the engine-side request lifecycle events
	// (enqueue, admit, prefill-done, preempt, finish, reject) and the
	// per-iteration throughput records, plus the controller-written
	// fleet events for this replica (crash, eject, restart, readmit,
	// lost).
	stream *obs.Stream
}

// event forwards one lifecycle event. Nil-safe on both the tap and its
// stream so call sites stay a bare call with no guards; the arguments
// are plain values, so the disabled path allocates nothing.
func (t *engineTap) event(at time.Duration, kind obs.Kind, req int, detail string) {
	if t == nil {
		return
	}
	t.stream.Event(at, kind, req, detail)
}

// iter records one iteration's end time and tokens processed (see
// obs.Iter). Nil-safe like event.
func (t *engineTap) iter(at time.Duration, tokens int) {
	if t == nil {
		return
	}
	t.stream.Iter(at, tokens)
}

// attachStream points the engine's tap at an obs stream. A nil stream
// (observer disabled) leaves the engine untouched — in particular it
// does not allocate a tap.
func (e *Engine) attachStream(s *obs.Stream) {
	if s == nil {
		return
	}
	e.tap = &engineTap{stream: s}
}
