package serve

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkKV verifies the engine's KV conservation: the blocks its running
// sequences hold plus the block pool's free blocks make up the whole
// cache, and no waiting, completed or rejected sequence holds a block.
func checkKV(e *Engine) error {
	held := 0
	for _, s := range e.running {
		if s.kvBlocks < 0 {
			return fmt.Errorf("running seq %d holds %d blocks", s.req.ID, s.kvBlocks)
		}
		held += int(s.kvBlocks)
	}
	for _, q := range []struct {
		name string
		seqs []*seq
	}{{"waiting", e.waiting.seqs()}, {"completed", e.completed}, {"rejected", e.rejected}} {
		for _, s := range q.seqs {
			if s.kvBlocks != 0 {
				return fmt.Errorf("%s seq %d holds %d blocks", q.name, s.req.ID, s.kvBlocks)
			}
		}
	}
	return e.blocks.checkInvariant(held)
}

// checkNoneDone checks the invariant apply's conditional retire rests
// on: between engine steps no running sequence is done, because every
// pass that can finish one (apply, and settle for a stretch that ran
// out) retires it.
func checkNoneDone(e *Engine) error {
	for _, s := range e.running {
		if s.done() {
			return fmt.Errorf("running seq %d is done between steps: %.2f of %d tokens decoded",
				s.req.ID, s.decoded, s.req.OutputTokens)
		}
	}
	return nil
}

// stepOne advances e by one scheduling step: the engine's plan step,
// price and apply, after the idle jump to its next arrival when nothing
// can run before it, and checks that no running sequence is left done.
// It never runs a stretch ahead, so every iteration it takes is
// scheduled: it is the reference run-ahead is checked against.
func stepOne(t testing.TB, e *Engine) {
	t.Helper()
	for {
		plan := e.nextPlan(true)
		if !plan.empty() {
			cost := e.price(&plan)
			e.apply(plan, cost, e.now+cost.Total())
			break
		}
		if e.finished() {
			break
		}
		e.now = e.nextArrival()
	}
	if err := checkNoneDone(e); err != nil {
		t.Fatal(err)
	}
}

// TestKVHoldingsConservedEveryIteration steps a bursty Shift engine, a
// KV-tight preemption storm and a crash-drained replica one iteration at
// a time and checks KV conservation after every one: the running
// sequences' holdings plus the free blocks always make up the cache, and
// a sequence off the running queue never keeps a block. Each also steps
// to a controller-like 250 ms grid of horizons, so run-ahead stretches
// stay open across horizons and resume; the check settles them first,
// as every serial reader of KV state does, and the crash lands on an
// open stretch with unsettled steps.
func TestKVHoldingsConservedEveryIteration(t *testing.T) {
	cm := llamaCM(t)
	one := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	cases := []struct {
		name string
		cfg  Config
		reqs []workload.Request
		// crashAt, when positive, crash-drains the engine after that many
		// steps and re-enqueues the lost requests, as a restarted replica
		// that keeps its work would see them.
		crashAt int
		// grid, when positive, steps to the next multiple of grid instead
		// of one iteration at a time.
		grid time.Duration
	}{
		{name: "bursty", cfg: shiftCfg(cm), reqs: trace.Bursty(7, 60*time.Second).Requests},
		{name: "preempt-storm", cfg: one, reqs: workload.Closed("storm", 256, 1024, 2048).Requests},
		{name: "crash-drain", cfg: one, reqs: trace.Bursty(11, 60*time.Second).Requests, crashAt: 400},
		{name: "bursty-250ms-horizons", cfg: shiftCfg(cm), reqs: trace.Bursty(7, 60*time.Second).Requests,
			grid: 250 * time.Millisecond},
		{name: "preempt-storm-250ms-horizons", cfg: one, reqs: workload.Closed("storm", 256, 1024, 2048).Requests,
			grid: 250 * time.Millisecond},
		{name: "crash-drain-250ms-horizons", cfg: one, reqs: trace.Bursty(11, 60*time.Second).Requests,
			crashAt: 40, grid: 250 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.cfg)
			for _, r := range tc.reqs {
				e.enqueue(r)
			}
			crashed, resumed := false, 0
			for steps := 0; !e.finished(); steps++ {
				if steps > 1_000_000 {
					t.Fatal("engine did not drain")
				}
				if tc.grid > 0 {
					if e.ahead.left > 0 {
						resumed++
					}
					e.stepUntil((e.now/tc.grid+1)*tc.grid, true)
				} else {
					stepOne(t, e)
				}
				// On the grid, crash only into an open stretch that has
				// booked steps it has not settled.
				if tc.crashAt > 0 && steps >= tc.crashAt && !crashed && len(e.running) > 0 &&
					(tc.grid == 0 || e.ahead.booked > 0) {
					crashed = true
					lost, _ := e.crashDrain()
					if err := checkKV(e); err != nil {
						t.Fatalf("after the crash drain: %v", err)
					}
					if e.blocks.used() != 0 {
						t.Fatalf("crash drain left %d blocks allocated", e.blocks.used())
					}
					slices.SortStableFunc(lost, func(a, b workload.Request) int {
						return cmp.Compare(a.Arrival, b.Arrival)
					})
					for _, r := range lost {
						e.enqueue(r)
					}
				}
				e.settle()
				if err := checkKV(e); err != nil {
					t.Fatalf("after step %d: %v", steps, err)
				}
				if err := checkNoneDone(e); err != nil {
					t.Fatalf("after step %d: %v", steps, err)
				}
			}
			if tc.grid > 0 && resumed == 0 {
				t.Fatal("test premise broken: no stretch stayed open across a horizon")
			}
			if strings.HasPrefix(tc.name, "preempt-storm") && e.preemptions == 0 {
				t.Fatal("test premise broken: the storm did not preempt")
			}
			if tc.crashAt > 0 && !crashed {
				t.Fatal("test premise broken: the run ended before the crash")
			}
			if e.blocks.used() != 0 {
				t.Fatalf("drained engine holds %d blocks", e.blocks.used())
			}
		})
	}
}

// TestSteadyIterationAllocatesNothing pins one steady decode iteration
// of a warmed TP=8 engine — admit, schedule, price, apply — and a
// run-ahead stretch of them, cut at a horizon and resumed at the next,
// at zero allocations: the engine runs tens of thousands of these per
// trace.
func TestSteadyIterationAllocatesNothing(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	for i := 0; i < 64; i++ {
		e.enqueue(workload.Request{ID: i, InputTokens: 512, OutputTokens: 1 << 20})
	}
	iterate := func() {
		e.admit()
		plan := e.schedule()
		cost := e.price(&plan)
		e.apply(plan, cost, e.now+cost.Total())
	}
	for len(e.running) < 64 || !e.running[63].prefillDone() {
		iterate()
	}
	if allocs := testing.AllocsPerRun(100, iterate); allocs != 0 {
		t.Fatalf("one steady iteration allocates %.1f times, want 0", allocs)
	}
	// The first horizon starts a stretch from the steady state without
	// scheduling, and every later one resumes it: each step only prices
	// and books.
	iters, plans, resumed := e.iters, e.plans, 0
	stretch := func() {
		if e.ahead.left > 0 {
			resumed++
		}
		e.stepUntil(e.now+50*time.Millisecond, true)
	}
	if allocs := testing.AllocsPerRun(100, stretch); allocs != 0 {
		t.Fatalf("one run-ahead stretch allocates %.1f times, want 0", allocs)
	}
	if e.plans != plans {
		t.Fatalf("a steady engine scheduled %d iterations, want 0", e.plans-plans)
	}
	if e.iters-iters < 2*101 || resumed < 100 {
		t.Fatalf("test premise broken: %d iterations, %d resumes over 101 horizons", e.iters-iters, resumed)
	}
	if len(e.running) != 64 || e.preemptions != 0 {
		t.Fatalf("test premise broken: %d running, %d preemptions", len(e.running), e.preemptions)
	}
}

// Every routed request takes one seq in its engine's slab, so seq's size
// is the simulator's engine memory per request: a field that grows it
// grows every request, and has to update this bound and say why.
func TestSeqFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(seq{}); size > 200 {
		t.Fatalf("seq is %d bytes, want <= 200", size)
	}
}
