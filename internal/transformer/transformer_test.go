package transformer

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func testCfg() Config {
	return Config{Layers: 2, Hidden: 16, QHeads: 4, KVHeads: 2, FFN: 32}
}

func randChunk(rng *tensor.RNG, seq, tokens, d int) Chunk {
	return Chunk{Seq: seq, X: rng.RandMatrix(tokens, d, 1)}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Layers: 1, Hidden: 15, QHeads: 4, KVHeads: 2, FFN: 8},
		{Layers: 1, Hidden: 16, QHeads: 4, KVHeads: 3, FFN: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestNewWeightsDeterministic(t *testing.T) {
	a := NewWeights(testCfg(), 7)
	b := NewWeights(testCfg(), 7)
	c := NewWeights(testCfg(), 8)
	if !tensor.Equal(a.Layers[0].Wq, b.Layers[0].Wq, 0) {
		t.Fatal("same seed produced different weights")
	}
	if tensor.Equal(a.Layers[0].Wq, c.Layers[0].Wq, 0) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestParamCount(t *testing.T) {
	cfg := testCfg()
	w := NewWeights(cfg, 1)
	d, dh := cfg.Hidden, cfg.HeadDim()
	perLayer := d*cfg.QHeads*dh + 2*d*cfg.KVHeads*dh + cfg.QHeads*dh*d + 2*d*cfg.FFN
	if got := w.ParamCount(); got != cfg.Layers*perLayer {
		t.Fatalf("param count = %d, want %d", got, cfg.Layers*perLayer)
	}
}

func TestForwardShape(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	ref := NewReference(w)
	rng := tensor.NewRNG(2)
	out := ref.Forward([]Chunk{randChunk(rng, 0, 5, 16), randChunk(rng, 1, 3, 16)})
	if out.Rows != 8 || out.Cols != 16 {
		t.Fatalf("out shape %dx%d", out.Rows, out.Cols)
	}
	if ref.Cache.Len(0) != 5 || ref.Cache.Len(1) != 3 {
		t.Fatalf("cache lens %d/%d", ref.Cache.Len(0), ref.Cache.Len(1))
	}
}

func TestForwardDeterministic(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	rng := tensor.NewRNG(3)
	batch := []Chunk{randChunk(rng, 0, 4, 16)}
	a := NewReference(w).Forward(batch)
	b := NewReference(w).Forward(batch)
	if !tensor.Equal(a, b, 0) {
		t.Fatal("forward not deterministic")
	}
}

// Causality: output rows for a prefix must not depend on later tokens.
func TestForwardCausal(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	rng := tensor.NewRNG(4)
	x := rng.RandMatrix(6, 16, 1)

	full := NewReference(w).Forward([]Chunk{{Seq: 0, X: x}})
	prefix := NewReference(w).Forward([]Chunk{{Seq: 0, X: tensor.SliceRows(x, 0, 3)}})
	if !tensor.Equal(tensor.SliceRows(full, 0, 3), prefix, 1e-9) {
		t.Fatalf("prefix rows differ: %g", tensor.MaxAbsDiff(tensor.SliceRows(full, 0, 3), prefix))
	}
}

// Chunked prefill equivalence: feeding a prompt in pieces produces the
// same final-token output and cache as feeding it at once.
func TestChunkedPrefillEquivalence(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	rng := tensor.NewRNG(5)
	x := rng.RandMatrix(7, 16, 1)

	whole := NewReference(w)
	outWhole := whole.Forward([]Chunk{{Seq: 0, X: x}})

	pieces := NewReference(w)
	var outLast *tensor.Matrix
	for _, span := range [][2]int{{0, 3}, {3, 5}, {5, 7}} {
		outLast = pieces.Forward([]Chunk{{Seq: 0, X: tensor.SliceRows(x, span[0], span[1])}})
	}
	gotLast := outLast.Row(outLast.Rows - 1)
	wantLast := outWhole.Row(outWhole.Rows - 1)
	for i := range wantLast {
		if math.Abs(gotLast[i]-wantLast[i]) > 1e-9 {
			t.Fatalf("chunked prefill diverged at col %d: %v vs %v", i, gotLast[i], wantLast[i])
		}
	}
	if whole.Cache.Fingerprint() != pieces.Cache.Fingerprint() {
		// Cache entries come from identical math in identical order, so
		// they must agree bit-for-bit.
		t.Fatal("chunked prefill cache differs from whole prefill")
	}
}

// Decode equivalence: prefill(n) then decode(1) equals prefill(n+1) on
// the last row.
func TestDecodeMatchesPrefill(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	rng := tensor.NewRNG(6)
	x := rng.RandMatrix(5, 16, 1)

	oneShot := NewReference(w).Forward([]Chunk{{Seq: 0, X: x}})

	eng := NewReference(w)
	eng.Forward([]Chunk{{Seq: 0, X: tensor.SliceRows(x, 0, 4)}})
	dec := eng.Forward([]Chunk{{Seq: 0, X: tensor.SliceRows(x, 4, 5)}})

	for i := 0; i < 16; i++ {
		if math.Abs(dec.At(0, i)-oneShot.At(4, i)) > 1e-9 {
			t.Fatalf("decode col %d: %v vs %v", i, dec.At(0, i), oneShot.At(4, i))
		}
	}
}

// Batch independence: co-batched sequences do not influence each other.
func TestBatchIsolation(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	rng := tensor.NewRNG(7)
	a := rng.RandMatrix(4, 16, 1)
	b := rng.RandMatrix(3, 16, 1)

	together := NewReference(w).Forward([]Chunk{{Seq: 0, X: a}, {Seq: 1, X: b}})
	alone := NewReference(w).Forward([]Chunk{{Seq: 0, X: a}})
	if !tensor.Equal(tensor.SliceRows(together, 0, 4), alone, 1e-9) {
		t.Fatal("co-batched sequence contaminated")
	}
}

func TestMultiStepDecodeBatch(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	rng := tensor.NewRNG(8)
	eng := NewReference(w)
	eng.Forward([]Chunk{randChunk(rng, 0, 3, 16), randChunk(rng, 1, 5, 16)})
	for step := 0; step < 3; step++ {
		out := eng.Forward([]Chunk{randChunk(rng, 0, 1, 16), randChunk(rng, 1, 1, 16)})
		if out.Rows != 2 {
			t.Fatalf("decode step rows = %d", out.Rows)
		}
	}
	if eng.Cache.Len(0) != 6 || eng.Cache.Len(1) != 8 {
		t.Fatalf("cache lens after decode: %d/%d", eng.Cache.Len(0), eng.Cache.Len(1))
	}
}

// mat builds a row-major matrix of the given width from its elements.
func mat(cols int, data ...float64) *tensor.Matrix {
	return &tensor.Matrix{Rows: len(data) / cols, Cols: cols, Data: data}
}

func TestAttendUniformWhenZeroQK(t *testing.T) {
	// With zero q/k the scores are uniform and output is the mean of v.
	q := tensor.New(1, 2)
	k := tensor.New(3, 2)
	v := mat(2, 0, 0, 3, 3, 6, 9)
	out := Attend(q, k, v, 2)
	if math.Abs(out.At(0, 0)-3) > 1e-12 || math.Abs(out.At(0, 1)-4) > 1e-12 {
		t.Fatalf("uniform attention mean = %v,%v", out.At(0, 0), out.At(0, 1))
	}
}

func TestAttendCausalMask(t *testing.T) {
	// Token at position 0 (prevLen 0) must ignore rows 1+ entirely.
	q := mat(2, 1, 0)
	k := mat(2, 1, 0, 100, 0)
	v := mat(2, 5, 5, -100, -100)
	out := Attend(q, k, v, 0)
	if out.At(0, 0) != 5 || out.At(0, 1) != 5 {
		t.Fatalf("causal mask leaked future: %v", out.Row(0))
	}
}

func TestBatchTokens(t *testing.T) {
	rng := tensor.NewRNG(9)
	batch := []Chunk{randChunk(rng, 0, 4, 8), randChunk(rng, 1, 1, 8)}
	if BatchTokens(batch) != 5 {
		t.Fatalf("BatchTokens = %d", BatchTokens(batch))
	}
}

func TestFlattenSpans(t *testing.T) {
	rng := tensor.NewRNG(10)
	batch := []Chunk{randChunk(rng, 0, 2, 4), randChunk(rng, 1, 3, 4)}
	x, spans := flatten(batch)
	if x.Rows != 5 {
		t.Fatalf("flatten rows = %d", x.Rows)
	}
	if spans[0] != [2]int{0, 2} || spans[1] != [2]int{2, 5} {
		t.Fatalf("spans = %v", spans)
	}
}

func TestEmptyBatchPanics(t *testing.T) {
	w := NewWeights(testCfg(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReference(w).Forward(nil)
}

func TestGQASharesKVHeads(t *testing.T) {
	// With GQA, q heads in the same group read the same kv head: check
	// the cache holds KVHeads (not QHeads) entries.
	cfg := testCfg()
	w := NewWeights(cfg, 1)
	ref := NewReference(w)
	rng := tensor.NewRNG(11)
	ref.Forward([]Chunk{randChunk(rng, 0, 4, cfg.Hidden)})
	if ref.Cache.Heads != cfg.KVHeads {
		t.Fatalf("cache heads = %d, want %d", ref.Cache.Heads, cfg.KVHeads)
	}
	k := ref.Cache.K(0, 0, 0)
	if k.Rows != 4 {
		t.Fatalf("cached k rows = %d", k.Rows)
	}
}

// AttendInto writes Attend's bits into its block of a larger output and
// leaves the rest alone, whatever its score scratch held before.
func TestAttendIntoMatchesAttendExactly(t *testing.T) {
	rng := tensor.NewRNG(11)
	scores := rng.RandMatrix(7, 9, 1) // dirty scratch of another shape
	for _, c := range []struct{ t, ctx, prev int }{{1, 5, 4}, {3, 3, 0}, {4, 9, 5}} {
		q := rng.RandMatrix(c.t, 4, 1)
		k, v := rng.RandMatrix(c.ctx, 4, 1), rng.RandMatrix(c.ctx, 4, 1)
		want := Attend(q, k, v, c.prev)
		out := rng.RandMatrix(c.t+2, 10, 1)
		before := out.Clone()
		AttendInto(out, 1, 3, scores, q, k, v, c.prev)
		for i := 0; i < out.Rows; i++ {
			for j := 0; j < out.Cols; j++ {
				got, w := out.At(i, j), before.At(i, j)
				if i >= 1 && i < 1+c.t && j >= 3 && j < 7 {
					w = want.At(i-1, j-3)
				}
				if math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("t=%d ctx=%d: out(%d,%d) = %v, want %v", c.t, c.ctx, i, j, got, w)
				}
			}
		}
	}
}

// FlattenInto refills its destinations: reused for a smaller batch, it
// gives the same rows and spans as a fresh flatten, and it refuses a
// chunk of the wrong width.
func TestFlattenIntoReusesDestinations(t *testing.T) {
	rng := tensor.NewRNG(12)
	var x tensor.Matrix
	var spans [][2]int
	spans = FlattenInto(&x, spans, []Chunk{randChunk(rng, 0, 5, 4), randChunk(rng, 1, 3, 4)})
	small := []Chunk{randChunk(rng, 2, 1, 4), randChunk(rng, 0, 2, 4)}
	spans = FlattenInto(&x, spans, small)
	want, wantSpans := flatten(small)
	if !tensor.Equal(&x, want, 0) || len(spans) != 2 || spans[0] != wantSpans[0] || spans[1] != wantSpans[1] {
		t.Fatalf("reused flatten = %v %v, want %v %v", x.Data, spans, want.Data, wantSpans)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a chunk of the wrong width")
		}
	}()
	FlattenInto(&x, spans, []Chunk{randChunk(rng, 0, 1, 4), randChunk(rng, 1, 1, 3)})
}

// maskedAttend is attention as AttendInto computed it before it scored
// only the live prefix, kept frozen here as the oracle: every element of
// the [t, ctx] score matrix as a dot product (from zero, over q's
// nonzero entries in ascending index), -Inf past each row's causal
// limit, a softmax over the whole row, then P·V.
func maskedAttend(q, k, v *tensor.Matrix, prevLen int) *tensor.Matrix {
	scores := tensor.New(q.Rows, k.Rows)
	for i := 0; i < q.Rows; i++ {
		for j := 0; j < k.Rows; j++ {
			s := 0.0
			for kk, av := range q.Row(i) {
				if av != 0 {
					s += av * k.At(j, kk)
				}
			}
			scores.Set(i, j, s)
		}
	}
	scale := 1 / math.Sqrt(float64(q.Cols))
	for i := 0; i < scores.Rows; i++ {
		srow := scores.Row(i)
		for j := range srow {
			if j > prevLen+i {
				srow[j] = math.Inf(-1)
			} else {
				srow[j] *= scale
			}
		}
	}
	for i := 0; i < scores.Rows; i++ {
		row := scores.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
	out := tensor.New(q.Rows, v.Cols)
	tensor.MatMulBlock(out, 0, 0, scores, v)
	return out
}

// AttendInto scores only each row's live prefix and must give the bits
// of the full masked softmax: on prefill (prevLen 0), chunked prefill
// and decode shapes, with zeros (and a zero row) in q so the dot
// products skip entries, and with ±0, ±Inf and NaN placed in q and k
// so some scores are non-finite (and a skipped zero of q meets an Inf
// of k): a row that the masked softmax turns to NaN must come out NaN,
// and every other element bit for bit.
func TestAttendIntoMatchesMaskedSoftmaxExactly(t *testing.T) {
	rng := tensor.NewRNG(13)
	scores := rng.RandMatrix(3, 40, 1) // dirty scratch
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, c := range []struct {
		name          string
		t, prev, dh   int
		special, zero bool
	}{
		{"prefill", 9, 0, 8, false, true},
		{"prefill-odd-dh", 7, 0, 5, false, true},
		{"chunked", 6, 11, 8, false, true},
		{"chunked-one-row", 1, 3, 4, false, false},
		{"decode", 1, 24, 8, false, true},
		{"decode-short", 1, 0, 8, false, false},
		{"prefill-special", 12, 0, 8, true, true},
		{"chunked-special", 5, 7, 4, true, true},
	} {
		for trial := 0; trial < 4; trial++ {
			q := rng.RandMatrix(c.t, c.dh, 1)
			for i := range q.Data {
				switch {
				case c.zero && rng.Intn(3) == 0:
					q.Data[i] = 0
				case c.special && rng.Intn(12) == 0:
					q.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			if c.zero && c.t > 1 {
				clear(q.Row(rng.Intn(c.t)))
			}
			ctx := c.prev + c.t
			k, v := rng.RandMatrix(ctx, c.dh, 1), rng.RandMatrix(ctx, c.dh, 1)
			for i := range k.Data {
				if c.special && rng.Intn(12) == 0 {
					k.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			want := maskedAttend(q, k, v, c.prev)
			got := tensor.New(c.t, c.dh)
			AttendInto(got, 0, 0, scores, q, k, v, c.prev)
			for i, w := range want.Data {
				g := got.Data[i]
				if math.IsNaN(w) && math.IsNaN(g) {
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s trial %d: element (%d,%d) = %v, want %v", c.name, trial, i/c.dh, i%c.dh, g, w)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on q and k of different widths")
		}
	}()
	AttendInto(tensor.New(1, 4), 0, 0, scores, tensor.New(1, 4), tensor.New(2, 3), tensor.New(2, 4), 1)
}
