package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

// mixTrace is a saturating batch plus one later interactive request.
func mixTrace(t *testing.T, cfg Config, overSub float64) *workload.Trace {
	t.Helper()
	e := mustEngine(t, cfg)
	in, out := 4096, 512
	n := int(overSub * float64(e.KVCapacityTokens()) / float64(in+out))
	batch := workload.Closed("batch", n, in, out)
	inter := &workload.Trace{Name: "inter", Requests: []workload.Request{
		{Arrival: 100 * time.Millisecond, InputTokens: 128, OutputTokens: 32, Class: "interactive"},
	}}
	return workload.Merge("mix", batch, inter)
}

// interactiveTTFT pulls the interactive request's TTFT out of a result.
func interactiveTTFT(t *testing.T, res *Result) time.Duration {
	t.Helper()
	for _, m := range res.PerRequest {
		if m.Class == "interactive" {
			if m.Rejected {
				t.Fatal("interactive request rejected")
			}
			return m.TTFT
		}
	}
	t.Fatal("interactive request missing from result")
	return 0
}

// A zero deadline is always missed; attainment must be exactly 0.
func TestZeroDeadlineAlwaysMissed(t *testing.T) {
	cm := llamaCM(t)
	tr := workload.Closed("batch", 16, 1024, 64).Stamp("", 0, workload.Deadline(0, 0))
	res, err := SingleEngine("zero", tp8Cfg(cm)).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	a := res.SLOByClass["batch"]
	if a == nil || a.Requests != 16 {
		t.Fatalf("attainment = %+v", a)
	}
	if a.TTFTRate() != 0 || a.TPOTRate() != 0 {
		t.Fatalf("zero deadlines attained TTFT %.2f TPOT %.2f, want 0",
			a.TTFTRate(), a.TPOTRate())
	}
}

// NoDeadline is never missed, never urgent, and never preempts — and
// with uniform priorities the schedule is bit-for-bit the FIFO one.
func TestInfiniteDeadlineNeverPreemptsAndIsNeutral(t *testing.T) {
	cm := llamaCM(t)
	plain := mixTrace(t, tp8Cfg(cm), 2)
	base, err := SingleEngine("plain", tp8Cfg(cm)).Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	stamped := mixTrace(t, tp8Cfg(cm), 2).
		Stamp("", 5, workload.Deadline(workload.NoDeadline, workload.NoDeadline))
	res, err := SingleEngine("plain", tp8Cfg(cm)).Run(stamped)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOPreemptions != 0 {
		t.Fatalf("NoDeadline triggered %d SLO preemptions", res.SLOPreemptions)
	}
	for class, a := range res.SLOByClass {
		if a.TTFTRate() != 1 || a.TPOTRate() != 1 {
			t.Fatalf("%s: NoDeadline attainment TTFT %.2f TPOT %.2f, want 1",
				class, a.TTFTRate(), a.TPOTRate())
		}
	}
	// Neutral stamping (equal priority, infinite deadlines) must leave
	// every scheduling decision unchanged.
	if len(res.PerRequest) != len(base.PerRequest) {
		t.Fatal("request counts diverged")
	}
	for i := range res.PerRequest {
		got, want := res.PerRequest[i], base.PerRequest[i]
		got.Priority, got.SLO = 0, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d diverged under neutral SLO stamping:\n got %+v\nwant %+v",
				want.ID, got, want)
		}
	}
	if res.Iters != base.Iters || res.Preemptions != base.Preemptions {
		t.Fatalf("iteration accounting diverged: %d/%d iters, %d/%d preemptions",
			res.Iters, base.Iters, res.Preemptions, base.Preemptions)
	}
}

// Priority/SLO zero values must reproduce the FIFO engine bit-for-bit —
// the seed traces carry neither, so Run output doubles as the seed
// regression (the sloAware path never activates).
func TestDefaultsReproduceFIFO(t *testing.T) {
	cm := llamaCM(t)
	tr := routerTrace(37, 150)
	a, err := SingleEngine("a", shiftCfg(cm)).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleEngine("a", shiftCfg(cm)).Run(routerTrace(37, 150))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PerRequest, b.PerRequest) || a.Iters != b.Iters {
		t.Fatal("default-valued runs are not reproducible")
	}
	if len(a.SLOByClass) != 0 {
		t.Fatalf("SLO attainment reported for SLO-free trace: %v", a.SLOByClass)
	}
}

// All-batch and all-interactive traces are both well-formed extremes:
// one class, full attainment accounting, no crashes under pressure.
func TestSingleClassExtremes(t *testing.T) {
	cm := llamaCM(t)
	for _, tc := range []struct {
		name  string
		class string
		prio  int
		slo   *workload.SLO
	}{
		{"all-batch", "batch", 0, workload.Deadline(workload.NoDeadline, workload.NoDeadline)},
		{"all-interactive", "interactive", 3, workload.Deadline(time.Second, 100*time.Millisecond)},
	} {
		tr := workload.Closed("load", 64, 2048, 128)
		for i := range tr.Requests {
			tr.Requests[i].Class = tc.class
		}
		tr.Stamp(tc.class, tc.prio, tc.slo)
		res, err := SingleEngine(tc.name, tp8Cfg(cm)).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		a := res.SLOByClass[tc.class]
		if a == nil || a.Requests+a.Rejected != 64 {
			t.Fatalf("%s: attainment accounting %+v", tc.name, a)
		}
	}
}

// Under heavy KV oversubscription, priority + a tight TTFT deadline must
// get the interactive request its first token sooner than FIFO would,
// via deadline-driven preemption of batch work.
func TestSLOPreemptionProtectsInteractive(t *testing.T) {
	cm := llamaCM(t)
	cfg := tp8Cfg(cm)

	fifo, err := SingleEngine("fifo", cfg).Run(mixTrace(t, cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	fifoTTFT := interactiveTTFT(t, fifo)

	stamped := mixTrace(t, cfg, 3).
		Stamp("interactive", 2, workload.Deadline(200*time.Millisecond, workload.NoDeadline))
	slo, err := SingleEngine("slo", cfg).Run(stamped)
	if err != nil {
		t.Fatal(err)
	}
	sloTTFT := interactiveTTFT(t, slo)

	if sloTTFT > fifoTTFT {
		t.Fatalf("SLO scheduling worsened interactive TTFT: %v > %v", sloTTFT, fifoTTFT)
	}
	if sloTTFT == fifoTTFT && slo.SLOPreemptions == 0 {
		t.Fatalf("SLO scheduling changed nothing under 3x oversubscription (TTFT %v)", sloTTFT)
	}
	// The interactive class's attainment must be reported.
	if slo.SLOByClass["interactive"] == nil {
		t.Fatal("interactive attainment missing")
	}
}

// A single-token response has no inter-token interval: any positive TPOT
// deadline is met, a zero one is still always missed.
func TestSingleTokenTPOTDeadline(t *testing.T) {
	cm := llamaCM(t)
	for _, tc := range []struct {
		slo  *workload.SLO
		want float64
	}{
		{workload.Deadline(0, 0), 0},
		{workload.Deadline(0, time.Second), 1},
	} {
		tr := workload.Single(1024, 1).Stamp("", 0, tc.slo)
		res, err := SingleEngine("one-tok", tp8Cfg(cm)).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.SLOByClass["interactive"].TPOTRate(); got != tc.want {
			t.Fatalf("TPOT deadline %v: attainment %v, want %v", tc.slo.TPOT, got, tc.want)
		}
	}
}

// Priority outranks urgency in the waiting queue: batch work whose loose
// deadline has turned urgent must not jump ahead of fresh higher-priority
// interactive requests (priority inversion).
func TestOrderWaitingPriorityOverUrgency(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	e.sloAware = true
	e.now = 20 * time.Second
	batch := &seq{firstTok: -1, req: workload.Request{ID: 0, Class: "batch",
		SLO: workload.Deadline(30*time.Second, workload.NoDeadline)}} // urgent: 20s in [15s, 30s]
	chat := &seq{firstTok: -1, req: workload.Request{ID: 1, Arrival: e.now - 100*time.Millisecond,
		Class: "chat", Priority: 2, SLO: workload.Deadline(1500*time.Millisecond, 0)}} // not yet urgent
	if !e.atRisk(batch) || e.atRisk(chat) {
		t.Fatal("test premise broken: batch should be at risk, chat not yet")
	}
	e.waiting.set([]*seq{batch, chat})
	e.orderWaiting()
	if e.waiting.at(0) != chat {
		t.Fatal("urgent loose-deadline batch jumped ahead of higher-priority chat")
	}
}

// A zero TTFT deadline is missed from the start, so it must never turn
// urgent — no futile preemption storms chasing an unmeetable deadline.
func TestZeroDeadlineNeverPreempts(t *testing.T) {
	cm := llamaCM(t)
	cfg := tp8Cfg(cm)
	tr := mixTrace(t, cfg, 3).Stamp("interactive", 2, workload.Deadline(0, 0))
	res, err := SingleEngine("zero-urgent", cfg).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOPreemptions != 0 {
		t.Fatalf("unmeetable zero deadline triggered %d SLO preemptions", res.SLOPreemptions)
	}
	if a := res.SLOByClass["interactive"]; a.TTFTRate() != 0 {
		t.Fatalf("zero deadline attained %.2f, want 0", a.TTFTRate())
	}
}

// A higher-priority head that is not yet at risk must not mask an
// urgent waiter behind it: preemptForUrgent rescues the first at-risk
// sequence in the priority-ordered queue.
func TestPreemptForUrgentSkipsNonUrgentHead(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	e.sloAware = true
	e.now = time.Second

	// Low-priority batch work owns the entire KV cache.
	batch := &seq{firstTok: -1, effInput: 64,
		req: workload.Request{ID: 1, Class: "batch", InputTokens: 64, OutputTokens: 8}}
	e.blocks.grow(&batch.kvBlocks, e.KVCapacityTokens())
	e.running = []*seq{batch}

	head := &seq{firstTok: -1, effInput: 64, req: workload.Request{ID: 2, Priority: 3,
		InputTokens: 64, OutputTokens: 8, Arrival: e.now,
		SLO: workload.Deadline(time.Hour, 0)}} // fresh: not at risk
	urgent := &seq{firstTok: -1, effInput: 64, req: workload.Request{ID: 3, Priority: 2,
		InputTokens: 64, OutputTokens: 8,
		SLO: workload.Deadline(1500*time.Millisecond, 0)}} // arrived at 0: at risk
	if e.atRisk(head) || !e.atRisk(urgent) {
		t.Fatal("test premise broken")
	}
	e.waiting.set([]*seq{head, urgent}) // priority order puts the masked head first

	e.preemptForUrgent()
	if e.sloPreempts == 0 {
		t.Fatal("urgent waiter behind a non-urgent head was not rescued")
	}
	if len(e.running) != 0 {
		t.Fatal("batch KV owner should have been evicted")
	}
}

// A rejected request misses its finite deadlines but cannot miss a
// NoDeadline dimension the caller declared it does not care about.
func TestRejectedNoDeadlineNotMissed(t *testing.T) {
	cm := llamaCM(t)
	e := mustEngine(t, tp8Cfg(cm))
	tr := workload.Single(e.KVCapacityTokens()+1, 8). // prompt bigger than the whole cache
								Stamp("", 0, workload.Deadline(30*time.Second, workload.NoDeadline))
	res, err := SingleEngine("rej", tp8Cfg(cm)).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	a := res.SLOByClass["interactive"]
	if a == nil || a.Rejected != 1 || a.Requests != 0 {
		t.Fatalf("attainment accounting %+v", a)
	}
	if a.TTFTRate() != 0 || a.TPOTRate() != 1 {
		t.Fatalf("rejection: TTFT %.2f (want 0), TPOT %.2f (want 1)", a.TTFTRate(), a.TPOTRate())
	}
}

// A high-priority decode must claim KV from a lower-priority runner that
// sits EARLIER in the running queue: orderRunning moves low-priority
// work to the tail, where victim selection finds it, instead of the
// high-priority sequence preempting itself.
func TestHighPriorityDecodeEvictsEarlierBatch(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	e.sloAware = true
	batch := &seq{firstTok: -1, effInput: 64, prefilled: 64, decoded: 1,
		req: workload.Request{ID: 1, Class: "batch", InputTokens: 64, OutputTokens: 1 << 20}}
	chat := &seq{firstTok: -1, effInput: 64, prefilled: 64, decoded: 1,
		req: workload.Request{ID: 2, Class: "chat", Priority: 2, InputTokens: 64, OutputTokens: 1 << 20}}
	// Batch first in the queue and owning all KV; chat behind it with a
	// token allocation that must grow.
	e.blocks.grow(&batch.kvBlocks, e.KVCapacityTokens()-e.cfg.BlockTokens)
	e.blocks.grow(&chat.kvBlocks, e.cfg.BlockTokens)
	e.running = []*seq{batch, chat}

	plan := e.schedule()
	var decodes []string
	for _, s := range plan.decodes {
		decodes = append(decodes, s.req.Class)
	}
	for _, s := range e.running {
		if s == chat {
			goto chatAlive
		}
	}
	t.Fatalf("chat was evicted instead of batch (decodes: %v)", decodes)
chatAlive:
	if batch.preempted == 0 {
		t.Fatalf("lower-priority batch ahead in the queue kept its KV (decodes: %v)", decodes)
	}
}

// A blocked high-priority waiter must not be starved by ordinary
// lower-priority traffic admitted past it; only at-risk (deadline
// rescue) waiters may pass.
func TestBlockedHighPriorityNotStarved(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	e.sloAware = true
	e.now = 60 * time.Millisecond

	// Leave just watermark+10 blocks free (held by a phantom allocation),
	// so a 100-block prompt is blocked while a 1-block prompt fits.
	wm := e.watermark()
	var phantom int32
	e.blocks.grow(&phantom, (e.blocks.numBlocks-wm-10)*e.cfg.BlockTokens)
	big := 100 * e.cfg.BlockTokens
	p5 := &seq{firstTok: -1, effInput: big,
		req: workload.Request{ID: 1, Priority: 5, InputTokens: big, OutputTokens: 8}}
	p0 := &seq{firstTok: -1, effInput: 16,
		req: workload.Request{ID: 2, InputTokens: 16, OutputTokens: 8}}

	e.waiting.set([]*seq{p5, p0})
	plan := e.schedule()
	for _, s := range plan.prefills {
		if s == p0 {
			t.Fatal("ordinary low-priority work was admitted past a blocked priority-5 waiter")
		}
	}

	// An at-risk low-priority waiter IS allowed past (deadline rescue).
	p0urgent := &seq{firstTok: -1, effInput: 16,
		req: workload.Request{ID: 3, InputTokens: 16, OutputTokens: 8,
			SLO: workload.Deadline(100*time.Millisecond, 0)}}
	if !e.atRisk(p0urgent) {
		t.Fatal("test premise broken: rescue waiter should be at risk")
	}
	e.waiting.set([]*seq{p5, p0urgent})
	plan = e.schedule()
	admitted := false
	for _, s := range plan.prefills {
		admitted = admitted || s == p0urgent
	}
	if !admitted {
		t.Fatal("at-risk waiter was not allowed past the blocked head")
	}
}

// Two runners that both block on KV growth leave the engine memory-stuck
// (resolveEmpty's preempt branch). FIFO never gets there, since the older
// prefill takes the budget first; priorities can. A low-priority prompt
// of 0.7x the cache runs first, a high-priority one of the same size
// arrives a second later and is admitted ahead of it, and neither can
// finish its prefill in what is left: the engine must evict exactly the
// low-priority runner, once, and then serve both.
func TestMemoryStuckPreemptsLowPriority(t *testing.T) {
	e := mustEngine(t, gpu1Cfg(llamaCM(t)))
	in := int(0.7 * float64(e.KVCapacityTokens()))
	reqs := []workload.Request{
		{ID: 0, InputTokens: in, OutputTokens: 4, Class: "low"},
		{ID: 1, Arrival: time.Second, InputTokens: in, OutputTokens: 4, Class: "high",
			Priority: 1, SLO: workload.Deadline(24*time.Second, workload.NoDeadline)},
	}
	ms := e.Run(reqs)
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("%d results, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Rejected || m.Completion <= 0 {
			t.Fatalf("request %d: rejected=%v completion=%v, want served", m.ID, m.Rejected, m.Completion)
		}
		if want := 1 - m.ID; m.Preemptions != want {
			t.Errorf("request %d preempted %d times, want %d", m.ID, m.Preemptions, want)
		}
	}
}
