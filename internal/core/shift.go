// Package core implements Shift Parallelism, the paper's primary
// contribution (Section 3.3): a deployment holding two configurations —
// a base (SP, TP) engine optimizing TTFT and throughput, and a shift
// (1, SP*TP) full-TP engine optimizing TPOT — that share a single KV
// cache and switch per iteration on the batched token count
// (Algorithm 2). KV cache invariance across the two engines is provided
// by the Figure-6 head mapping in internal/parallel.
package core

import (
	"fmt"

	"repro/internal/kvcache"
	"repro/internal/parallel"
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

	lay    parallel.Layout
	base   *parallel.Engine
	shift  *parallel.Engine
	caches []*kvcache.Cache

	// Iteration log for observability/tests.
	baseIters, shiftIters int
}

// Options configures New beyond the required layout.
type Options struct {
	// Threshold in batched tokens; zero means DefaultThreshold.
	Threshold int
}

// DefaultThreshold mirrors the production heuristic: shift to full TP
// only for small (decode-dominated) batches. Units are batched tokens.
const DefaultThreshold = 32

// New builds a Shift engine for the base configuration lay. The shift
// configuration is always (SP=1, TP=lay.World()) over the same Figure-6
// head mapping, sharing lay's KV caches.
func New(w *transformer.Weights, lay parallel.Layout, opts Options) (*Shift, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	if threshold < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", threshold)
	}
	caches := parallel.NewCaches(lay)
	base, err := parallel.NewEngine(w, lay, parallel.ModeSP, caches)
	if err != nil {
		return nil, fmt.Errorf("core: base engine: %w", err)
	}
	shiftEng, err := parallel.NewEngine(w, lay, parallel.ModeTP, caches)
	if err != nil {
		return nil, fmt.Errorf("core: shift engine: %w", err)
	}
	return &Shift{
		Threshold: threshold,
		lay:       lay,
		base:      base,
		shift:     shiftEng,
		caches:    caches,
	}, nil
}

// Layout returns the base configuration layout.
func (s *Shift) Layout() parallel.Layout { return s.lay }

// Caches returns the shared per-rank KV caches.
func (s *Shift) Caches() []*kvcache.Cache { return s.caches }

// ChooseMode implements Algorithm 2's predicate: base (SP, TP) for
// batches above the threshold, shift (full TP) otherwise.
func (s *Shift) ChooseMode(batchTokens int) parallel.Mode {
	if batchTokens > s.Threshold {
		return parallel.ModeSP
	}
	return parallel.ModeTP
}

// Forward runs one iteration, dispatching per Algorithm 2, and returns
// the output embeddings in batch order.
func (s *Shift) Forward(batch []transformer.Chunk) *tensor.Matrix {
	n := transformer.BatchTokens(batch)
	if s.ChooseMode(n) == parallel.ModeSP {
		s.baseIters++
		return s.base.Forward(batch)
	}
	s.shiftIters++
	return s.shift.Forward(batch)
}

// ForwardMode runs one iteration on an explicitly chosen configuration
// (used by tests and by the serving simulator's scheduler, which knows
// the batch composition ahead of time).
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

// WeightMemory describes the per-GPU weight footprint of a Shift
// deployment in parameter counts (multiply by dtype bytes for bytes).
type WeightMemory struct {
	// BaseShard is w/TP: the base config shards weights TP ways only
	// (SP replicates within its group).
	BaseShard float64
	// ShiftShard is w/(SP*TP): the shift config shards across all GPUs.
	ShiftShard float64
	// Total is the per-GPU total: BaseShard plus ShiftShard when the
	// shift config is a separate copy.
	Total float64
	// Overhead is Total/BaseShard - 1: the fraction of extra memory paid
	// for holding the shift model (Eq. 1 gives 1/SP).
	Overhead float64
}

// WeightMemory reports Eq. 1 for this engine's actual parameter count
// under the separate-models strategy, by perf.WeightBytesPerGPU's rule:
//
//	w_total = w/TP + w/(SP*TP)   (SP > 1)
//	w_total = w/TP               (SP = 1: the base is already full TP)
//
// The functional engine holds neither copy: every rank reads its shard
// in place from the one Weights, so both configurations run the same
// forwards whichever strategy the footprint is priced under.
func (s *Shift) WeightMemory() WeightMemory {
	params := float64(s.base.W.ParamCount())
	m := WeightMemory{BaseShard: params / float64(s.lay.TP), ShiftShard: params / float64(s.lay.World())}
	m.Total = m.BaseShard
	if s.lay.SP > 1 {
		m.Total += m.ShiftShard
	}
	m.Overhead = m.Total/m.BaseShard - 1
	return m
}
