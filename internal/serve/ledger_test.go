package serve

import (
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/workload"
)

// queuedTokens walks an engine's queues — pending arrivals, waiting and
// running — summing TotalTokens: the oracle the load ledger must match.
func queuedTokens(e *Engine) int {
	n := 0
	for _, s := range e.arrivals[e.nextIdx:] {
		n += s.req.TotalTokens()
	}
	for _, s := range e.waiting.seqs() {
		n += s.req.TotalTokens()
	}
	for _, s := range e.running {
		n += s.req.TotalTokens()
	}
	return n
}

// TestEngineLedgerBalances runs one engine through every way a request
// leaves it — completion after preemption, an unservable prompt, a KV-
// exhausted lone runner, and a deadline shed — and checks the ledger
// balances at the end of Engine.Run: nothing left on the backlog, and
// completedTokens equal to the completions' token total.
func TestEngineLedgerBalances(t *testing.T) {
	cm := llamaCM(t)
	one := perf.Parallelism{SP: 1, TP: 1}
	capTok := mustEngine(t, Config{CM: cm, Par: one}).KVCapacityTokens()
	cases := []struct {
		name string
		cfg  Config
		// hold pre-allocates that many KV tokens to a phantom sequence
		// before the run, shrinking the cache the requests can use.
		hold int
		reqs []workload.Request
		// premise checks the run took the path the row is named after.
		premise func(e *Engine) bool
	}{
		{
			name: "preemption",
			cfg:  Config{CM: cm, Par: one, MaxSeqs: 64},
			reqs: func() []workload.Request {
				reqs := make([]workload.Request, 30)
				for i := range reqs {
					reqs[i] = workload.Request{ID: i, InputTokens: capTok/15 - 500, OutputTokens: 600}
				}
				return reqs
			}(),
			premise: func(e *Engine) bool { return e.preemptions > 0 && len(e.completed) == 30 },
		},
		{
			name: "unservable-prompt",
			cfg:  Config{CM: cm, Par: one},
			reqs: []workload.Request{
				{ID: 0, InputTokens: 512, OutputTokens: 16},
				{ID: 1, Arrival: time.Millisecond, InputTokens: capTok + 1, OutputTokens: 4},
			},
			premise: func(e *Engine) bool {
				return len(e.rejected) == 1 && e.rejected[0].rejectReason == RejectUnservablePrompt
			},
		},
		{
			// The phantom leaves room for the first prefill chunks but not
			// the whole prompt, so the lone runner stalls mid-prefill.
			name: "kv-exhausted",
			cfg:  Config{CM: cm, Par: one},
			hold: capTok - 4*DefaultChunkBudget,
			reqs: []workload.Request{{ID: 0, InputTokens: 5 * DefaultChunkBudget, OutputTokens: 8}},
			premise: func(e *Engine) bool {
				return len(e.rejected) == 1 && e.rejected[0].rejectReason == RejectKVExhausted
			},
		},
		{
			name: "deadline-shed",
			cfg: Config{
				CM: cm, Par: one, MaxSeqs: 4,
				Admission: &AdmissionConfig{Policy: AdmissionDeadline},
			},
			reqs:    overloadArrivals(60),
			premise: func(e *Engine) bool { return e.shed > 0 && len(e.completed) > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.cfg)
			if tc.hold > 0 {
				var phantom int32
				e.blocks.grow(&phantom, tc.hold)
			}
			e.Run(tc.reqs)
			if !tc.premise(e) {
				t.Fatalf("premise broken: %d completed, %d rejected, %d preemptions, %d shed",
					len(e.completed), len(e.rejected), e.preemptions, e.shed)
			}
			if e.backlogTokens != 0 {
				t.Fatalf("backlog %d tokens after the run, want 0", e.backlogTokens)
			}
			done := 0
			for _, s := range e.completed {
				done += s.req.TotalTokens()
			}
			if e.completedTokens != done {
				t.Fatalf("completedTokens %d, completions total %d", e.completedTokens, done)
			}
		})
	}
}

// TestFleetLedgerMatchesQueues steps the hardest cluster path —
// autoscaling, a crash-restart and a crash-forever (so ejection and
// readmission), breakers, and shed-or-buy staging onto a flaky, capped
// cloud tier — event by event, as controller.run does. After every
// advance and every controller action each replica's backlogTokens must
// equal a walk of its queues, and a crash or an ejection must leave the
// drained replica's backlog at zero before its work is re-placed. The
// stepped run must also reproduce Cluster.Run's result exactly, so the
// test walks the real event sequence.
func TestFleetLedgerMatchesQueues(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 43)
	cfg := Config{
		CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
		Admission: &AdmissionConfig{Policy: AdmissionShedOrBuy},
	}
	cl := DPCluster("ledger", cfg, 2)
	cl.Router = NewCloudOverflowRouter()
	cl.Autoscale = &AutoscaleConfig{
		Scaler: NewQueueDepthAutoscaler(), Interval: 5 * time.Second,
		ColdStart: 5 * time.Second, Min: 2, Max: 6,
	}
	cl.Faults = &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
		{Replica: 1, At: 15 * time.Second, Restart: 25 * time.Second},
		{Replica: 0, At: 20 * time.Second},
	}}
	cl.Breakers = &BreakerConfig{FailThreshold: 3, OpenFor: 4 * time.Second}
	cloud := cloudCfg()
	cloud.FailEvery = 7
	cloud.MaxSpend = 2
	cl.Cloud = cloud
	want, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	ctl, err := newController(Geo{
		Name:    cl.Name,
		Regions: []Region{{Name: cl.Name, Configs: cl.Configs, Router: cl.Router, Autoscale: cl.Autoscale}},
		Faults:  cl.Faults, Breakers: cl.Breakers, Cloud: cl.Cloud,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	f := ctl.regions[0]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(at time.Duration, what string) {
		t.Helper()
		for _, rep := range f.replicas {
			if got, walk := rep.engine.backlogTokens, queuedTokens(rep.engine); got != walk {
				t.Fatalf("%v after %s: %s backlog %d tokens, queues hold %d",
					at, what, rep.engine.cfg.Name, got, walk)
			}
		}
	}
	drained := func(at time.Duration, rep *replica, what string) {
		t.Helper()
		if rep.engine.backlogTokens != 0 {
			t.Fatalf("%v: %s backlog %d tokens right after %s, want 0",
				at, rep.engine.cfg.Name, rep.engine.backlogTokens, what)
		}
	}
	// handle is controller.handle with fire's crash and probe arms
	// inlined, so the drained replicas are inspected between the drain
	// and the re-placement of their work.
	handle := func(now time.Duration, kind, ri int, final bool) {
		var lost []workload.Request
		switch kind {
		case evEval:
			must(ctl.handle(now, kind, ri, final))
			check(now, "evaluation")
			return
		case evCrash:
			rc := ctl.crashes[ctl.nextCrash]
			ctl.nextCrash++
			lost = f.applyCrashEvent(rc.ev, now)
			drained(now, f.replicas[rc.ev.replica], "a crash")
		case evProbe:
			ctl.nextProbe += DefaultProbeInterval
			lost = f.probeAll(now)
			for _, rep := range f.replicas {
				if rep.ejected && rep.ejectedAt == now {
					drained(now, rep, "an ejection")
				}
			}
		default:
			must(ctl.fire(now, kind))
		}
		must(ctl.resubmit(lost, now))
		must(ctl.flush(now))
		check(now, "a fault event")
	}
	advance := func(at time.Duration, ri int, final bool) {
		ctl.advance(at, ri, final)
		check(at, "an advance")
	}

	for _, r := range tr.Requests {
		for {
			at, kind, ri := ctl.nextEvent(false)
			if at > r.Arrival {
				break
			}
			advance(at, ri, false)
			handle(at, kind, ri, false)
		}
		advance(r.Arrival, -1, false)
		must(ctl.flush(r.Arrival))
		ctl.retry.noteAdmission()
		must(ctl.place(r, r.Arrival))
		check(r.Arrival, "a placement")
	}
	f.draining = true
	for !ctl.done() {
		at, kind, ri := ctl.nextEvent(true)
		advance(at, ri, true)
		if ctl.done() {
			break
		}
		handle(at, kind, ri, true)
	}
	ctl.drainCloud()
	check(f.replicas[0].engine.now, "the final cloud drain")
	got, err := ctl.result()
	if err != nil {
		t.Fatal(err)
	}
	if encodeResult(t, got) != encodeResult(t, want) {
		t.Fatal("event-by-event stepping diverged from Cluster.Run")
	}
	if got.ReplicaCrashes == 0 || got.Ejections == 0 || got.ScaleUps == 0 ||
		got.CloudRequests == 0 || got.Shed == 0 {
		t.Fatalf("premise broken: crashes %d, ejections %d, scale-ups %d, cloud %d, shed %d",
			got.ReplicaCrashes, got.Ejections, got.ScaleUps, got.CloudRequests, got.Shed)
	}
}
