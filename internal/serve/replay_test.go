package serve

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// replayTokens returns rows [from, from+n) of sequence id's token
// stream. A row depends only on (id, position), so the recompute after
// a preemption feeds the functional engine the rows it saw before.
func replayTokens(id, from, n, d int) *tensor.Matrix {
	x := tensor.New(n, d)
	for i := 0; i < n; i++ {
		copy(x.Row(i), tensor.NewRNG(uint64(id)<<32|uint64(from+i)).RandMatrix(1, d, 1).Data)
	}
	return x
}

// TestServeSchedulesRunOnFunctionalShift replays the serving engine's
// own schedules on the functional Shift engine. A toy model whose
// model.Config matches a transformer.Config is priced by perf on a node
// whose HBM leaves a few hundred KV tokens, so chunked prefill,
// preemption by recompute and configuration switches all happen. Each
// plan is stepped as stepOne steps it, and its prefill chunks
// (recompute included) and decodes run through core.Shift.ForwardMode
// on the configuration the plan was priced on, and through
// transformer.Reference. After every iteration:
//
//   - the outputs match the reference;
//   - the plan ran full TP exactly when core.Shift.ChooseMode picks it,
//     with one threshold in both layers (batches of the threshold and
//     one token more both occur);
//   - each running sequence's functional cache holds prefilled tokens
//     while it prefills and ctx()-1 after (the token an iteration emits
//     enters the cache on the next one), on every rank and in the
//     reference;
//   - its KV holding covers that length and at most the next token.
//
// A preempted sequence is dropped from every rank and the reference,
// and prefilled again from its first token. The traffic runs twice:
// FIFO, and with some requests interactive, so SLO scheduling's urgent
// preemptions are replayed too. Spec decoding and prefix caching stay
// off: the functional engine has neither.
func TestServeSchedulesRunOnFunctionalShift(t *testing.T) {
	fifo := make([]workload.Request, 16)
	for i := range fifo {
		fifo[i] = workload.Request{
			ID: i, Arrival: time.Duration(i) * 15 * time.Millisecond,
			InputTokens: 8 + i*7%33, OutputTokens: 24 + i*13%40,
		}
	}
	// Every fourth request is interactive: higher priority and a TTFT
	// deadline, so at-risk waiters preempt batch work (preemptForUrgent)
	// and the running queue is ordered by priority.
	slo := slices.Clone(fifo)
	for i := range slo {
		if i%4 == 3 {
			slo[i].Priority, slo[i].SLO = 1, workload.Deadline(40*time.Millisecond, workload.NoDeadline)
		}
	}
	t.Run("fifo", func(t *testing.T) { replayOnShift(t, fifo) })
	t.Run("slo", func(t *testing.T) {
		if e := replayOnShift(t, slo); e.sloPreempts == 0 {
			t.Fatal("premise: no urgent preemption")
		}
	})
}

// replayOnShift serves reqs on the toy engine, replaying every plan on
// core.Shift, and returns the drained engine.
func replayOnShift(t *testing.T, reqs []workload.Request) *Engine {
	const threshold, tol = 4, 1e-9
	tc := transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 32}
	w := transformer.NewWeights(tc, 17)
	params := float64(w.ParamCount())
	toy := model.Config{
		Name: "toy", Layers: tc.Layers, Hidden: tc.Hidden, QHeads: tc.QHeads, KVHeads: tc.KVHeads, FFN: tc.FFN,
		Vocab: 64, TotalParams: params, ActiveParams: params, WeightDType: model.FP16, KVDType: model.FP16,
	}
	node := hw.P5enNode()
	// 4,160 weight bytes per GPU (w/TP plus the w/(SP·TP) shift copy)
	// and 16 KV bytes per token and rank leave 256 tokens of KV.
	node.GPU.MemBytes = 9174
	cm, err := perf.New(node, toy, perf.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lay := parallel.Layout{Cfg: tc, SP: 4, TP: 2}
	e := mustEngine(t, Config{
		CM: cm, Par: perf.Parallelism{SP: lay.SP, TP: lay.TP}, Strategy: StrategyShift,
		ShiftThreshold: threshold, ChunkBudget: 24, BlockTokens: 4,
	})
	if got := e.KVCapacityTokens(); got != 256 {
		t.Fatalf("KV capacity %d tokens, want 256", got)
	}
	shift, err := core.New(w, lay, core.Options{Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	ref := transformer.NewReference(w)
	caches := shift.Caches()
	drop := func(id int) {
		for _, c := range caches {
			c.Drop(id)
		}
		ref.Cache.Drop(id)
	}
	for _, r := range reqs {
		e.enqueue(r)
	}
	fullTP := perf.Parallelism{SP: 1, TP: lay.World()}

	batches := map[int]int{} // iterations per batched-token count
	preempted := map[*seq]int32{}
	modes := map[int]int{}       // per request ID: bit 1<<mode for each configuration it ran on
	recomputed := map[int]bool{} // IDs dropped and prefilled again
	decodedAfterRecompute := false
	for steps := 0; !e.finished(); steps++ {
		if steps > 100_000 {
			t.Fatal("engine did not drain")
		}
		plan := e.nextPlan(true)
		for _, s := range append(append([]*seq{}, e.running...), e.waiting.seqs()...) {
			if s.preempted > preempted[s] {
				preempted[s] = s.preempted
				drop(s.req.ID)
				recomputed[s.req.ID] = true
			}
		}
		if plan.empty() {
			if !e.finished() {
				e.now = e.nextArrival()
			}
			continue
		}
		var batch []transformer.Chunk
		for _, s := range plan.decodes {
			n := ref.Cache.Len(s.req.ID)
			batch = append(batch, transformer.Chunk{Seq: s.req.ID, X: replayTokens(s.req.ID, n, 1, tc.Hidden)})
			decodedAfterRecompute = decodedAfterRecompute || recomputed[s.req.ID]
		}
		for i, s := range plan.prefills {
			batch = append(batch, transformer.Chunk{Seq: s.req.ID, X: replayTokens(s.req.ID, s.prefilled, plan.chunks[i], tc.Hidden)})
		}
		batches[transformer.BatchTokens(batch)]++
		cost := e.price(&plan)
		mode := parallel.ModeSP
		if plan.par == fullTP {
			mode = parallel.ModeTP
		}
		if want := shift.ChooseMode(transformer.BatchTokens(batch)); mode != want {
			t.Fatalf("step %d: serve ran %v on %d tokens, core.Shift chooses %v", steps, plan.par, transformer.BatchTokens(batch), want)
		}
		for _, c := range batch {
			modes[c.Seq] |= 1 << mode
		}
		want := ref.Forward(cloneChunks(batch))
		if got := shift.ForwardMode(mode, batch); !tensor.Equal(got, want, tol) {
			t.Fatalf("step %d (%v): outputs differ from the reference by %g", steps, mode, tensor.MaxAbsDiff(got, want))
		}
		e.apply(plan, cost, e.now+cost.Total())

		running := map[int]bool{}
		for _, s := range e.running {
			id := s.req.ID
			running[id] = true
			n := ref.Cache.Len(id)
			want := s.prefilled
			if s.prefillDone() {
				want = s.ctx() - 1
			}
			if n != want {
				t.Fatalf("step %d: seq %d caches %d tokens, serve expects %d (prefilled %d of %d, ctx %d)",
					steps, id, n, want, s.prefilled, s.effInput, s.ctx())
			}
			for g, c := range caches {
				if c.Len(id) != n {
					t.Fatalf("step %d: seq %d: rank %d caches %d tokens, the reference %d", steps, id, g, c.Len(id), n)
				}
			}
			if lo, hi := e.alloc.BlocksFor(n), e.alloc.BlocksFor(n+1); int(s.kvBlocks) < lo || int(s.kvBlocks) > hi {
				t.Fatalf("step %d: seq %d holds %d blocks for %d cached tokens, want %d..%d", steps, id, s.kvBlocks, n, lo, hi)
			}
		}
		for _, id := range ref.Cache.Sequences() {
			if !running[id] {
				drop(id) // finished or rejected: its KV is freed
			}
		}
	}

	if e.preemptions == 0 || len(recomputed) == 0 || !decodedAfterRecompute {
		t.Fatalf("premise: %d preemptions, %d sequences recomputed, decode after a recompute %v; want all",
			e.preemptions, len(recomputed), decodedAfterRecompute)
	}
	if base, sh := shift.Iterations(); base == 0 || sh == 0 {
		t.Fatalf("premise: %d base and %d shift iterations, want both", base, sh)
	}
	if batches[threshold] == 0 || batches[threshold+1] == 0 {
		t.Fatalf("premise: %d batches of %d tokens and %d of %d, want both at Algorithm 2's boundary",
			batches[threshold], threshold, batches[threshold+1], threshold+1)
	}
	switched := 0
	for _, m := range modes {
		if m == 1<<parallel.ModeSP|1<<parallel.ModeTP {
			switched++
		}
	}
	if switched == 0 {
		t.Fatal("premise: no sequence ran on both configurations")
	}
	if len(e.rejected) != 0 || len(e.completed) != len(reqs) {
		t.Fatalf("%d completed, %d rejected; want all %d served", len(e.completed), len(e.rejected), len(reqs))
	}
	return e
}

func cloneChunks(batch []transformer.Chunk) []transformer.Chunk {
	out := make([]transformer.Chunk, len(batch))
	for i, c := range batch {
		out[i] = transformer.Chunk{Seq: c.Seq, X: c.X.Clone()}
	}
	return out
}
