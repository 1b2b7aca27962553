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
