package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

const tol = 1e-9

func cfg8() transformer.Config {
	return transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 32}
}

func newShiftT(t *testing.T, lay parallel.Layout, opts Options) (*Shift, *transformer.Weights) {
	t.Helper()
	w := transformer.NewWeights(lay.Cfg, 42)
	s, err := New(w, lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

func nextToken(out *tensor.Matrix, row int) *tensor.Matrix {
	x := tensor.SliceRows(out, row, row+1)
	tensor.RMSNormRows(x, 1e-6)
	return x
}

func TestChooseMode(t *testing.T) {
	lay := parallel.Layout{Cfg: cfg8(), SP: 4, TP: 2}
	s, _ := newShiftT(t, lay, Options{Threshold: 16})
	if s.ChooseMode(17) != parallel.ModeSP {
		t.Fatal("large batch should use base (SP) config")
	}
	if s.ChooseMode(16) != parallel.ModeTP {
		t.Fatal("threshold batch should use shift (TP) config")
	}
	if s.ChooseMode(1) != parallel.ModeTP {
		t.Fatal("small batch should use shift (TP) config")
	}
}

func TestDefaultThreshold(t *testing.T) {
	lay := parallel.Layout{Cfg: cfg8(), SP: 2, TP: 2}
	s, _ := newShiftT(t, lay, Options{})
	if s.Threshold != perf.DefaultShiftThreshold {
		t.Fatalf("threshold = %d", s.Threshold)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	w := transformer.NewWeights(cfg8(), 1)
	if _, err := New(w, parallel.Layout{Cfg: cfg8(), SP: 3, TP: 1}, Options{}); err == nil {
		t.Fatal("expected invalid layout error")
	}
	if _, err := New(w, parallel.Layout{Cfg: cfg8(), SP: 2, TP: 2}, Options{Threshold: -1}); err == nil || !strings.Contains(err.Error(), "Options.Threshold") {
		t.Fatalf("negative threshold: error %v, want one naming Options.Threshold", err)
	}
}

// The paper's core behaviour: a full request served with automatic
// shifting (prefill above threshold on SP, decode below it on TP over the
// shared cache) is output-identical to the reference transformer.
func TestShiftedRequestMatchesReference(t *testing.T) {
	for _, grid := range []struct{ sp, tp int }{{4, 2}, {8, 1}, {2, 2}} {
		lay := parallel.Layout{Cfg: cfg8(), SP: grid.sp, TP: grid.tp}
		s, w := newShiftT(t, lay, Options{Threshold: 4})
		ref := transformer.NewReference(w)
		rng := tensor.NewRNG(7)
		prompt := rng.RandMatrix(10, lay.Cfg.Hidden, 1) // 10 > threshold -> base

		refOut := ref.Forward([]transformer.Chunk{{Seq: 0, X: prompt}})
		gotOut := s.Forward([]transformer.Chunk{{Seq: 0, X: prompt.Clone()}})
		if !tensor.Equal(gotOut, refOut, tol) {
			t.Fatalf("(SP=%d,TP=%d) prefill diverged: %g", grid.sp, grid.tp, tensor.MaxAbsDiff(gotOut, refOut))
		}
		for step := 0; step < 4; step++ { // decode batches of 1 <= threshold -> shift
			tok := nextToken(refOut, refOut.Rows-1)
			refOut = ref.Forward([]transformer.Chunk{{Seq: 0, X: tok}})
			gotOut = s.Forward([]transformer.Chunk{{Seq: 0, X: tok.Clone()}})
			if !tensor.Equal(gotOut, refOut, tol) {
				t.Fatalf("(SP=%d,TP=%d) decode %d diverged: %g", grid.sp, grid.tp, step, tensor.MaxAbsDiff(gotOut, refOut))
			}
		}
		base, shift := s.Iterations()
		if base != 1 || shift != 4 {
			t.Fatalf("iterations base=%d shift=%d, want 1/4", base, shift)
		}
	}
}

// Traffic oscillation: batches alternating above/below the threshold
// bounce between configs with no output corruption.
func TestOscillatingTraffic(t *testing.T) {
	lay := parallel.Layout{Cfg: cfg8(), SP: 4, TP: 2}
	s, w := newShiftT(t, lay, Options{Threshold: 3})
	ref := transformer.NewReference(w)
	rng := tensor.NewRNG(8)

	// Two sequences, interleaved chunked prefill and decode.
	p0 := rng.RandMatrix(6, 16, 1)
	p1 := rng.RandMatrix(5, 16, 1)
	steps := [][]transformer.Chunk{
		{{Seq: 0, X: p0}}, // 6 tokens -> base
		{{Seq: 1, X: p1}}, // 5 tokens -> base
		{{Seq: 0, X: rng.RandMatrix(1, 16, 1)}, {Seq: 1, X: rng.RandMatrix(1, 16, 1)}}, // 2 -> shift
		{{Seq: 0, X: rng.RandMatrix(2, 16, 1)}, {Seq: 1, X: rng.RandMatrix(2, 16, 1)}}, // 4 -> base
		{{Seq: 0, X: rng.RandMatrix(1, 16, 1)}},                                        // 1 -> shift
	}
	for i, batch := range steps {
		want := ref.Forward(cloneBatch(batch))
		got := s.Forward(cloneBatch(batch))
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("step %d diverged: %g", i, tensor.MaxAbsDiff(got, want))
		}
	}
	base, shift := s.Iterations()
	if base != 3 || shift != 2 {
		t.Fatalf("iterations base=%d shift=%d", base, shift)
	}
}

func TestForwardModeExplicit(t *testing.T) {
	lay := parallel.Layout{Cfg: cfg8(), SP: 2, TP: 2}
	s, w := newShiftT(t, lay, Options{})
	ref := transformer.NewReference(w)
	rng := tensor.NewRNG(9)
	batch := []transformer.Chunk{{Seq: 0, X: rng.RandMatrix(4, 16, 1)}}
	want := ref.Forward(cloneBatch(batch))
	// Force the base config even though 4 tokens are below the threshold.
	got := s.ForwardMode(parallel.ModeSP, cloneBatch(batch))
	if !tensor.Equal(got, want, tol) {
		t.Fatalf("forced base diverged: %g", tensor.MaxAbsDiff(got, want))
	}
	base, shift := s.Iterations()
	if base != 1 || shift != 0 {
		t.Fatalf("iterations base=%d shift=%d", base, shift)
	}
}

// Property: for random thresholds and batch sizes the dispatch matches
// Algorithm 2's predicate and never corrupts the shared cache (checked by
// comparing against a reference run).
func TestQuickShiftDispatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, thrRaw, tokRaw uint8) bool {
		lay := parallel.Layout{Cfg: cfg8(), SP: 2, TP: 2}
		w := transformer.NewWeights(lay.Cfg, seed)
		thr := 1 + int(thrRaw)%8
		s, err := New(w, lay, Options{Threshold: thr})
		if err != nil {
			return false
		}
		ref := transformer.NewReference(w)
		rng := tensor.NewRNG(seed ^ 0x55aa)
		tokens := 1 + int(tokRaw)%10
		batch := []transformer.Chunk{{Seq: 0, X: rng.RandMatrix(tokens, 16, 1)}}

		want := ref.Forward(cloneBatch(batch))
		got := s.Forward(cloneBatch(batch))
		if !tensor.Equal(got, want, tol) {
			return false
		}
		base, shift := s.Iterations()
		if tokens > thr {
			return base == 1 && shift == 0
		}
		return base == 0 && shift == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func cloneBatch(batch []transformer.Chunk) []transformer.Chunk {
	out := make([]transformer.Chunk, len(batch))
	for i, c := range batch {
		out[i] = transformer.Chunk{Seq: c.Seq, X: c.X.Clone()}
	}
	return out
}
