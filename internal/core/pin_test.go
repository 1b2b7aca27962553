package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// TestFunctionalShiftOutputsPinned serves the bench's functional-shift
// unit (4 layers, d=64, 8Q/2KV heads, FFN 256 on (SP=4, TP=2), threshold
// 32: one 8x32-token prefill on the base config, then 32 one-token
// decode steps per sequence on the shift config) and pins its results
// bit for bit: an FNV-64a over every step's output float bits, and each
// rank cache's Fingerprint. The constants come from the forwards that
// copied every weight shard and KV history before multiplying, so a
// kernel that reads in place but changes any summation order fails here
// instead of hiding within a tolerance.
func TestFunctionalShiftOutputsPinned(t *testing.T) {
	const (
		seqs, prompt, decode = 8, 32, 32
		wantOut              = 0xbd5147658dbb1352
		// Ranks with t=0 hold KV head 0, ranks with t=1 KV head 1.
		wantEven = 0xc08301564b6b2dbc
		wantOdd  = 0xc09bc5426bf15cac
	)
	s, batch := pinnedUnit(t, seqs, prompt)
	h := fnv.New64a()
	var buf [8]byte
	hash := func(m *tensor.Matrix) {
		for _, x := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	out := s.Forward(batch)
	hash(out)
	rows := prompt
	for step := 0; step < decode; step++ {
		for i := range batch {
			batch[i] = transformer.Chunk{Seq: i, X: nextToken(out, (i+1)*rows-1)}
		}
		rows = 1
		out = s.Forward(batch)
		hash(out)
	}
	if base, shift := s.Iterations(); base != 1 || shift != decode {
		t.Fatalf("ran %d base and %d shift iterations, want 1 and %d", base, shift, decode)
	}
	if got := h.Sum64(); got != wantOut {
		t.Errorf("output hash = %#x, want %#x", got, uint64(wantOut))
	}
	for g, c := range s.Caches() {
		want := uint64(wantEven)
		if g%2 == 1 {
			want = wantOdd
		}
		if got := math.Float64bits(c.Fingerprint()); got != want {
			t.Errorf("rank %d cache fingerprint bits = %#x, want %#x", g, got, want)
		}
	}
}

// TestPrefillStepAllocationsPinned warms a Shift engine with the
// functional-shift unit's prefill, then pins the heap allocations of
// one more 8x32-token prefill step on the base config, of sequences the
// caches have not seen. Besides the forward's own (as in the steady
// step's 14), each of the 8 ranks creates each new sequence's cache
// entry (11 allocations) and reserves its K and V rows once per layer
// before the row loop (8): 8 x 8 x 19 = 1,216. Appending the rows one by
// one without reserving regrew every row list six times on the way to
// 32 rows, and the same step allocated 3,790.
func TestPrefillStepAllocationsPinned(t *testing.T) {
	const seqs, prompt, want = 8, 32, 1230
	s, batch := pinnedUnit(t, seqs, prompt)
	s.Forward(batch)
	next := seqs
	prefill := func() {
		for i := range batch {
			batch[i].Seq = next
			next++
		}
		s.ForwardMode(parallel.ModeSP, batch)
	}
	// AllocsPerRun runs one unmeasured step before the measured one.
	if got := testing.AllocsPerRun(1, prefill); got != want {
		t.Errorf("a prefill step of new sequences allocated %v objects, want %d", got, want)
	}
	if lens := s.Caches()[0].Len(next - 1); lens != prompt {
		t.Fatalf("cache holds %d tokens of the last sequence, want %d", lens, prompt)
	}
}

// pinnedUnit returns a fresh Shift engine for the functional-shift unit
// and its prefill batch of seqs prompts of the given length.
func pinnedUnit(t *testing.T, seqs, prompt int) (*Shift, []transformer.Chunk) {
	t.Helper()
	lay := parallel.Layout{
		Cfg: transformer.Config{Layers: 4, Hidden: 64, QHeads: 8, KVHeads: 2, FFN: 256},
		SP:  4, TP: 2,
	}
	s, err := New(transformer.NewWeights(lay.Cfg, 42), lay, Options{Threshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	batch := make([]transformer.Chunk, seqs)
	for i := range batch {
		batch[i] = transformer.Chunk{Seq: i, X: rng.RandMatrix(prompt, lay.Cfg.Hidden, 1)}
	}
	return s, batch
}

// TestSteadyStepAllocationsPinned warms a Shift engine with the
// functional-shift unit's prefill (which grows the base engine's
// workspaces) and one decode step (the shift engine's, and the KV
// caches' growth past the prompt), then pins the heap allocations of
// one more decode step on the shift config and of one on the base
// config. The steps measured stay clear of the next KV growth (at 65
// cached tokens), so what they allocate is the forward's own: the
// output matrix, the Forward closure, and the rank group's state and
// goroutines. Everything else comes from the engines' workspaces and
// the groups' reused buffers; a forward that allocated per layer, head
// or collective again would multiply these counts. Before the
// workspaces the same steps allocated 3,097 (shift) and 4,741 (base).
func TestSteadyStepAllocationsPinned(t *testing.T) {
	const seqs, prompt = 8, 32
	const wantShift, wantBase = 14, 14
	s, batch := pinnedUnit(t, seqs, prompt)
	out := s.Forward(batch)
	for i := range batch {
		batch[i] = transformer.Chunk{Seq: i, X: nextToken(out, (i+1)*prompt-1)}
	}
	s.Forward(batch)
	// Each AllocsPerRun runs one unmeasured step before the measured one.
	if got := testing.AllocsPerRun(1, func() { s.ForwardMode(parallel.ModeTP, batch) }); got != wantShift {
		t.Errorf("a steady shift (full-TP) decode step allocated %v objects, want %d", got, wantShift)
	}
	if got := testing.AllocsPerRun(1, func() { s.ForwardMode(parallel.ModeSP, batch) }); got != wantBase {
		t.Errorf("a steady base (SP, TP) decode step allocated %v objects, want %d", got, wantBase)
	}
	if lens := s.Caches()[0].Len(0); lens != prompt+5 {
		t.Fatalf("cache holds %d tokens after the steps, want %d", lens, prompt+5)
	}
}
