// Package core implements Shift Parallelism, the paper's primary
// contribution (Section 3.3): a deployment holding two configurations —
// a base (SP, TP) engine optimizing TTFT and throughput, and a shift
// (1, SP*TP) full-TP engine optimizing TPOT — that share a single KV
// cache and switch per iteration on the batched token count
// (Algorithm 2, perf.UsesShift). KV cache invariance across the two
// engines is provided by the Figure-6 head mapping in internal/parallel.
package core

import (
	"fmt"

	"repro/internal/kvcache"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// Shift is the Shift Parallelism engine. Its forwards are not safe for
// concurrent use: both engines append to the one set of caches (see
// parallel.Engine).
type Shift struct {
	// Threshold is the batched-token count above which the base (SP, TP)
	// configuration runs; at or below it the shift (full TP) runs.
	Threshold int

	base  *parallel.Engine
	shift *parallel.Engine

	// Iteration log for observability/tests.
	baseIters, shiftIters int
}

// Options configures New beyond the required layout.
type Options struct {
	// Threshold in batched tokens; zero means perf.DefaultShiftThreshold.
	Threshold int
}

// New builds a Shift engine for the base configuration lay. The shift
// configuration is always (SP=1, TP=lay.World()) over the same Figure-6
// head mapping, sharing lay's KV caches and the per-rank workspaces
// (parallel.NewPair).
func New(w *transformer.Weights, lay parallel.Layout, opts Options) (*Shift, error) {
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = perf.DefaultShiftThreshold
	}
	if threshold < 0 {
		return nil, fmt.Errorf("core: negative Options.Threshold %d", threshold)
	}
	base, shiftEng, err := parallel.NewPair(w, lay)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Shift{
		Threshold: threshold,
		base:      base,
		shift:     shiftEng,
	}, nil
}

// Caches returns the shared per-rank KV caches.
func (s *Shift) Caches() []*kvcache.Cache { return s.base.Caches }

// ChooseMode applies Algorithm 2's predicate (perf.UsesShift): base
// (SP, TP) for batches above the threshold, shift (full TP) otherwise.
func (s *Shift) ChooseMode(batchTokens int) parallel.Mode {
	if perf.UsesShift(batchTokens, s.Threshold) {
		return parallel.ModeTP
	}
	return parallel.ModeSP
}

// Forward runs one iteration on the configuration Algorithm 2 picks
// for the batch and returns the output embeddings in batch order.
func (s *Shift) Forward(batch []transformer.Chunk) *tensor.Matrix {
	return s.ForwardMode(s.ChooseMode(transformer.BatchTokens(batch)), batch)
}

// ForwardMode runs one iteration on an explicitly chosen configuration,
// as a scheduler that picked the configuration itself does.
func (s *Shift) ForwardMode(mode parallel.Mode, batch []transformer.Chunk) *tensor.Matrix {
	switch mode {
	case parallel.ModeSP:
		s.baseIters++
		return s.base.Forward(batch)
	case parallel.ModeTP:
		s.shiftIters++
		return s.shift.Forward(batch)
	default:
		panic(fmt.Sprintf("core: unknown mode %v", mode))
	}
}

// Iterations reports how many iterations ran on each configuration.
func (s *Shift) Iterations() (base, shift int) { return s.baseIters, s.shiftIters }
