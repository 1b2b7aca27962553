package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// used returns the pool's allocated blocks: the leak check of the
// engine tests (no block may stay held once an engine drains or
// crashes).
func (p *blockPool) used() int { return p.numBlocks - p.free }

// checkInvariant verifies conservation: held, the caller's sum over
// every holding it has grown, plus the free blocks make up the whole
// pool. The engine tests call it (through checkKV) after every
// scheduling step.
func (p *blockPool) checkInvariant(held int) error {
	if held < 0 || held+p.free != p.numBlocks {
		return fmt.Errorf("serve: KV leak: held %d + free %d != total %d", held, p.free, p.numBlocks)
	}
	return nil
}

// growPanic runs p.grow(held, tokens) and returns its panic value, nil
// if it did not panic.
func growPanic(p *blockPool, held *int32, tokens int) (v any) {
	defer func() { v = recover() }()
	p.grow(held, tokens)
	return nil
}

func TestBlockPoolBasics(t *testing.T) {
	p := newBlockPool(16, 10)
	if p.free != 10 || p.used() != 0 {
		t.Fatal("fresh pool wrong")
	}
	if p.need(0, 1) != 1 || p.need(0, 16) != 1 || p.need(0, 17) != 2 || p.need(0, 0) != 0 {
		t.Fatal("need of an empty holding wrong")
	}
	var held int32
	p.grow(&held, 40) // 3 blocks
	if held != 3 || p.free != 7 {
		t.Fatalf("holds=%d free=%d", held, p.free)
	}
	// Growing to 50 tokens needs 4 blocks total, 1 more.
	if n := p.need(held, 50); n != 1 {
		t.Fatalf("need(3, 50) = %d, want 1", n)
	}
	p.grow(&held, 50)
	if held != 4 {
		t.Fatalf("holds = %d", held)
	}
	// Shrinking request is a no-op.
	if p.grow(&held, 10); held != 4 || p.free != 6 {
		t.Fatal("shrink should be no-op")
	}
	p.release(&held)
	if p.free != 10 || held != 0 {
		t.Fatal("release did not return blocks")
	}
}

// TestBlockPoolOverGrowPanics: canGrow reports false for a growth past
// the free blocks, and grow panics on it naming the holding, the tokens
// and the free blocks, allocating nothing.
func TestBlockPoolOverGrowPanics(t *testing.T) {
	p := newBlockPool(16, 2)
	var one, two int32
	p.grow(&one, 32)
	if p.canGrow(two, 1) {
		t.Fatal("canGrow should be false with no free block")
	}
	v := growPanic(p, &two, 1)
	err, ok := v.(error)
	if !ok {
		t.Fatalf("grow past the free blocks panicked with %v, want an error", v)
	}
	if msg := err.Error(); !strings.Contains(msg, "holding of 0 blocks grown to 1 tokens with 0 blocks free") {
		t.Fatalf("panic %q does not name the holding, tokens and free blocks", msg)
	}
	// A failed growth must not leak partial allocations.
	if two != 0 || p.free != 0 {
		t.Fatal("failed grow leaked blocks")
	}
	p.release(&one)
	if !p.canGrow(two, 32) {
		t.Fatal("canGrow should be true after release")
	}
	if growPanic(p, &one, 33) == nil || one != 0 || p.free != 2 {
		t.Fatalf("grow of 3 blocks out of 2 free: holding %d, free %d", one, p.free)
	}
}

func TestBlockPoolInvariant(t *testing.T) {
	p := newBlockPool(8, 100)
	held := make([]int32, 20)
	for i := range held {
		p.grow(&held[i], 8*(i%5+1))
	}
	for i := 0; i < 20; i += 2 {
		p.release(&held[i])
	}
	sum := 0
	for _, h := range held {
		sum += int(h)
	}
	if err := p.checkInvariant(sum); err != nil {
		t.Fatal(err)
	}
	if p.checkInvariant(sum+1) == nil || p.checkInvariant(sum-1) == nil {
		t.Fatal("checkInvariant accepted a wrong holding sum")
	}
}

// TestBlockPoolFastPathMatchesDivision: need compares tokens with the
// holding's capacity before it divides. Over every block size, holding,
// token count and free count below, need, canGrow and grow must give
// the answer, holding and free count of the division formula they
// replaced, and a growth the formula refuses must panic. On random
// running batches, Engine.kvGrowth(k) must equal the formula summed
// over the runners.
func TestBlockPoolFastPathMatchesDivision(t *testing.T) {
	for _, bt := range []int{1, 2, 3, 16, 17} {
		for h := int32(0); h <= 40; h++ {
			for _, free := range []int{0, 1, 2, 7, 64} {
				p := newBlockPool(bt, int(h)+free)
				var held int32
				if p.grow(&held, int(h)*bt); held != h || p.free != free {
					t.Fatalf("setup: held %d free %d, want %d, %d", held, p.free, h, free)
				}
				for tokens := -2; tokens <= 700; tokens++ {
					want := divisionNeed(bt, h, tokens)
					if n := p.need(h, tokens); n != want {
						t.Fatalf("block %d, held %d: need(%d) = %d, division %d", bt, h, tokens, n, want)
					}
					if can := p.canGrow(h, tokens); can != (want <= free) {
						t.Fatalf("block %d, held %d, free %d: canGrow(%d) = %v, division needs %d", bt, h, free, tokens, can, want)
					}
					q, got := *p, h
					v := growPanic(&q, &got, tokens)
					if want > free {
						if v == nil || got != h || q.free != free {
							t.Fatalf("block %d, held %d, free %d: grow(%d) past the free blocks: panic %v, held %d, free %d",
								bt, h, free, tokens, v, got, q.free)
						}
						continue
					}
					if v != nil || got != h+int32(want) || q.free != free-want {
						t.Fatalf("block %d, held %d, free %d: grow(%d) = panic %v, held %d, free %d; division %d, %d",
							bt, h, free, tokens, v, got, q.free, h+int32(want), free-want)
					}
				}
			}
		}
	}

	rng := tensor.NewRNG(17)
	for _, bt := range []int{1, 3, 16, 17} {
		e := mustEngine(t, Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 8}, BlockTokens: bt})
		for trial := 0; trial < 200; trial++ {
			e.running = e.running[:0]
			for n := 1 + rng.Intn(12); n > 0; n-- {
				in := 1 + rng.Intn(300)
				e.running = append(e.running, &seq{effInput: in, prefilled: in, decoded: float64(rng.Intn(100)),
					kvBlocks: int32(rng.Intn(40)), req: workload.Request{InputTokens: in, OutputTokens: 200}})
			}
			for k := 0; k <= 40; k++ {
				want := 0
				for _, s := range e.running {
					want += divisionNeed(bt, s.kvBlocks, s.ctx()+k)
				}
				if got := e.kvGrowth(k); got != want {
					t.Fatalf("block %d, trial %d: kvGrowth(%d) = %d, division %d", bt, trial, k, got, want)
				}
			}
		}
	}
}

// divisionNeed is need as it was before the capacity comparison, when
// every call divided: the reference the fast path is checked against. It
// does not follow later changes to the pool.
func divisionNeed(blockTokens int, held int32, tokens int) int {
	blocks := 0
	if tokens > 0 {
		blocks = (tokens + blockTokens - 1) / blockTokens
	}
	return max(0, blocks-int(held))
}

func TestQuickBlockPoolConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		p := newBlockPool(4, 64)
		var held [8]int32
		for _, op := range ops {
			seq := int(op % 8)
			tokens := int(op/8) % 40
			if op%3 == 0 {
				p.release(&held[seq])
			} else if p.canGrow(held[seq], tokens) {
				p.grow(&held[seq], tokens)
			}
			sum := 0
			for _, h := range held {
				if h < 0 {
					return false
				}
				sum += int(h)
			}
			if p.checkInvariant(sum) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewBlockPoolRejectsBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {16, -1}, {16, math.MaxInt32 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newBlockPool(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			newBlockPool(dims[0], dims[1])
		}()
	}
	if p := newBlockPool(1, math.MaxInt32); p.free != math.MaxInt32 {
		t.Fatal("MaxInt32 blocks should be allowed")
	}
}

// Releasing a holding that never grew (a sequence the pool has not
// seen) changes nothing.
func TestReleaseEmptyHoldingHarmless(t *testing.T) {
	p := newBlockPool(4, 4)
	var held int32
	p.release(&held)
	if p.free != 4 || held != 0 {
		t.Fatal("release of an empty holding changed state")
	}
	if err := p.checkInvariant(0); err != nil {
		t.Fatal(err)
	}
}
