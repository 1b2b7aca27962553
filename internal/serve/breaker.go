package serve

// Circuit breakers for the overload tier: per-replica and per-region
// closed → open → half-open state machines driven by shed and crash
// signals and by served completions, consulted by the live-least-loaded
// replica router and the spill-over geo router so traffic routes around
// a drowning tier and probes it back in. Breakers compose with — they
// do not replace — the health probe/ejection tier: ejection removes a
// dead machine from the routing set entirely, while a breaker
// deprioritizes an alive-but-drowning one and re-admits it through
// half-open probe traffic. All transitions happen at controller points,
// in a fixed order, so breaker state (and every byte derived from it) is
// deterministic per seed.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Breaker defaults (see BreakerConfig).
const (
	DefaultBreakerFailures = 5
	DefaultBreakerOpenFor  = 5 * time.Second
	DefaultBreakerProbes   = 3
)

// BreakerConfig tunes the circuit breakers. The zero value of each
// field means its default; a nil *BreakerConfig on Cluster/Geo disables
// breakers entirely (the legacy routing path, byte-identical).
type BreakerConfig struct {
	// FailThreshold consecutive failure signals (sheds, crash losses)
	// trip a closed breaker open. Zero means DefaultBreakerFailures.
	FailThreshold int
	// OpenFor is how long an open breaker diverts traffic before it
	// half-opens and lets probe traffic through. Zero means
	// DefaultBreakerOpenFor.
	OpenFor time.Duration
	// HalfOpenProbes is how many successes a half-open breaker needs to
	// close again; any failure while half-open re-trips it. Zero means
	// DefaultBreakerProbes.
	HalfOpenProbes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold == 0 {
		c.FailThreshold = DefaultBreakerFailures
	}
	if c.OpenFor == 0 {
		c.OpenFor = DefaultBreakerOpenFor
	}
	if c.HalfOpenProbes == 0 {
		c.HalfOpenProbes = DefaultBreakerProbes
	}
	return c
}

func (c *BreakerConfig) validate() error {
	switch {
	case c == nil:
	case c.FailThreshold < 0:
		return fmt.Errorf("serve: BreakerConfig.FailThreshold %d is negative", c.FailThreshold)
	case c.HalfOpenProbes < 0:
		return fmt.Errorf("serve: BreakerConfig.HalfOpenProbes %d is negative", c.HalfOpenProbes)
	case c.OpenFor < 0:
		return fmt.Errorf("serve: BreakerConfig.OpenFor %v is negative", c.OpenFor)
	}
	return nil
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breaker is one track's state machine.
type breaker struct {
	cfg      BreakerConfig
	state    breakerState
	fails    int // consecutive failures while closed
	okProbes int // successes seen while half-open
	openedAt time.Duration
	opens    int // lifetime open transitions (Result.BreakerOpens)
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults()}
}

// failure records one failure signal (a shed); it trips a closed
// breaker at the threshold and instantly re-trips a half-open one.
// Returns true on a transition to open.
func (b *breaker) failure(now time.Duration) bool {
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.trip(now)
			return true
		}
	case breakerHalfOpen:
		b.trip(now)
		return true
	}
	return false
}

// trip forces the breaker open — a crash is definitive evidence and
// skips the threshold. Returns true on a transition (an already-open
// breaker only refreshes its window).
func (b *breaker) trip(now time.Duration) bool {
	transition := b.state != breakerOpen
	b.state = breakerOpen
	b.openedAt = now
	b.fails, b.okProbes = 0, 0
	if transition {
		b.opens++
	}
	return transition
}

// success records one served completion; while half-open it counts
// toward closing. Returns true when it closed the breaker.
func (b *breaker) success() bool {
	switch b.state {
	case breakerClosed:
		b.fails = 0
	case breakerHalfOpen:
		b.okProbes++
		if b.okProbes >= b.cfg.HalfOpenProbes {
			b.state = breakerClosed
			b.fails, b.okProbes = 0, 0
			return true
		}
	}
	return false
}

// feed records one consumer's new terminal outcomes: each completion
// is a success, each admission shed a failure (other rejections say
// nothing about load). Transitions are traced on stream, a close with
// closeArg and an open with openArg.
func (b *breaker) feed(done, rej []*seq, now time.Duration, stream *obs.Stream, closeArg, openArg string) {
	for range done {
		if b.success() {
			stream.Event(now, obs.EvBreakerClose, obs.NoRequest, closeArg)
		}
	}
	for _, s := range rej {
		if s.rejectReason == RejectShed && b.failure(now) {
			stream.Event(now, obs.EvBreakerOpen, obs.NoRequest, openArg)
		}
	}
}

// allowOn reports whether routing may prefer this target. Open means
// avoid; once the open window has elapsed the breaker moves to
// half-open, traced on stream with arg, and lets the probes through.
// A nil breaker (breakers off) always allows.
func (b *breaker) allowOn(now time.Duration, stream *obs.Stream, arg string) bool {
	if b == nil {
		return true
	}
	if b.state == breakerOpen {
		if now-b.openedAt < b.cfg.OpenFor {
			return false
		}
		b.state = breakerHalfOpen
		b.okProbes = 0
		stream.Event(now, obs.EvBreakerHalfOpen, obs.NoRequest, arg)
	}
	return true
}
