package serve

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/specdec"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// steadyDecode reports whether e's next iteration would be a steady
// decode step, one a run-ahead stretch may skip scheduling for: every
// runner decodes (some may finish on it), nothing waits and no arrival
// is due.
func steadyDecode(e *Engine) bool {
	if len(e.running) == 0 || e.waiting.len() > 0 {
		return false
	}
	if a := e.nextArrival(); a >= 0 && a <= e.now {
		return false
	}
	for _, s := range e.running {
		if !s.prefillDone() {
			return false
		}
	}
	return true
}

// steadySteps counts a stepped run's steady decode steps, the ones a
// run-ahead stretch books: n in all, and shiftIn and shiftOut of them
// on the shift config starting inside and outside the degrade window.
type steadySteps struct{ n, shiftIn, shiftOut int }

// horizonGap draws the gap to a test's next horizon: 0 one time in
// eight (a repeated horizon), else log-uniform from 1 ns to 500 ms, so
// most horizons land inside a run-ahead stretch.
func horizonGap(rng *tensor.RNG) time.Duration {
	if rng.Intn(8) == 0 {
		return 0
	}
	return time.Duration(math.Exp(rng.Float64() * math.Log(float64(500*time.Millisecond))))
}

// shortOutputs is 8 long decodes at time zero joined, every 150 ms, by
// n short requests of 1, 2, 1, 3 and 5 output tokens: a request of one
// output token finishes in its prefill iteration, so sequences finish on
// scheduled iterations (from apply's prefill and decode loops) as well as
// at the end of run-ahead stretches.
func shortOutputs(n int) []workload.Request {
	reqs := make([]workload.Request, 0, 8+n)
	for i := 0; i < 8; i++ {
		reqs = append(reqs, workload.Request{ID: i, InputTokens: 512, OutputTokens: 300, Class: "batch"})
	}
	outs := []int{1, 2, 1, 3, 5}
	for i := 0; i < n; i++ {
		reqs = append(reqs, workload.Request{ID: 8 + i, Arrival: time.Duration(i+1) * 150 * time.Millisecond,
			InputTokens: 256, OutputTokens: outs[i%len(outs)], Class: "interactive"})
	}
	return reqs
}

// finishedInPrefill reports whether some request finished on the
// iteration that emitted its first token.
func finishedInPrefill(e *Engine, _ steadySteps) bool {
	for _, s := range e.completed {
		if s.req.OutputTokens == 1 && s.finished == s.firstTok {
			return true
		}
	}
	return false
}

// TestRunAheadMatchesSteppedEngine runs each engine four ways: one
// scheduling step at a time with stepOne, which ends any open stretch
// and whose horizon stops every stretch before its first step; with
// Run, which runs steady decode stretches ahead; with stepUntil over a
// seeded random grid of horizons, which cuts stretches mid-way, settles
// some of them while open and resumes them; and controller-style,
// enqueuing each request at a horizon on its arrival time with random
// horizons between arrivals. The last three must agree with stepping on
// every request's metrics, every counter, the accumulated cost and
// every obs record.
func TestRunAheadMatchesSteppedEngine(t *testing.T) {
	cm := llamaCM(t)
	// The bursty mix with every class on a TTFT deadline, tight enough
	// that a TP=2 engine sheds during the bursts.
	sloTrace := trace.Bursty(5, 30*time.Second).
		Stamp("interactive", 1, workload.Deadline(2*time.Second, 0)).
		Stamp("batch", 0, workload.Deadline(8*time.Second, 0))
	withSLO, prefix, ep, spec := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 2}}, tp8Cfg(cm), shiftCfg(moeCM(t)), shiftCfg(cm)
	withSLO.Admission = &AdmissionConfig{Policy: AdmissionDeadline}
	prefix.PrefixCache = &PrefixCacheConfig{ShareFraction: 0.8}
	ep.EP = perf.EPConfig{Degree: 8}
	spec.Stack = specdec.Stack{Spec: specdec.Spec{Len: 3, Acceptance: 0.7}}
	longDecode := workload.Closed("long", 8, 512, 2000).Requests
	cases := []struct {
		name string
		cfg  Config
		reqs []workload.Request
		// degrade, when set, arms a 3x degrade window over it: a long
		// decode stretch of 8 requests runs through both of its edges.
		degrade [2]time.Duration
		// exercised, when set, reports whether the stepped run used the
		// feature the case is about.
		exercised func(e *Engine, steady steadySteps) bool
	}{
		{name: "bursty-shift", cfg: shiftCfg(cm), reqs: trace.Bursty(7, 30*time.Second).Requests},
		{name: "preempt-storm", cfg: Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
			reqs:      workload.Closed("storm", 64, 1024, 2048).Requests,
			exercised: func(e *Engine, _ steadySteps) bool { return e.preemptions > 0 }},
		{name: "slo-deadline-admission", cfg: withSLO, reqs: sloTrace.Requests,
			exercised: func(e *Engine, _ steadySteps) bool { return e.shed > 0 }},
		{name: "degrade-mid-stretch", cfg: tp8Cfg(cm), reqs: longDecode,
			degrade: [2]time.Duration{5 * time.Second, 9 * time.Second}},
		{name: "prefix-cache", cfg: prefix, reqs: sessionedTrace(t, 3, 6).Requests,
			exercised: func(e *Engine, _ steadySteps) bool { return e.cacheHits > 0 }},
		{name: "ep", cfg: ep, reqs: trace.Bursty(9, 30*time.Second).Requests},
		{name: "spec-decode", cfg: spec, reqs: trace.Bursty(7, 30*time.Second).Requests},
		{name: "finish-in-prefill", cfg: tp8Cfg(cm), reqs: shortOutputs(20), exercised: finishedInPrefill},
		{name: "spec-decode-finish-in-prefill", cfg: spec, reqs: shortOutputs(20), exercised: finishedInPrefill},
		// Spec decoding's fractional yield overshoots a short request's
		// last token, and apply clamps decoded at OutputTokens: the
		// clamped count is that integer exactly, where an unclamped sum
		// of whole and fractional yields past the first token is not.
		{name: "spec-decode-clamp", cfg: spec, reqs: shortOutputs(20),
			exercised: func(e *Engine, _ steadySteps) bool {
				for _, s := range e.completed {
					if s.req.OutputTokens > 1 && s.decoded == float64(s.req.OutputTokens) {
						return true
					}
				}
				return false
			}},
		// A stretch on the shift config of an EP MoE engine runs through
		// both edges of a degrade window: its base carries the EP
		// dispatch, its steps book as shift iterations, and scaled and
		// plain steps book together.
		{name: "ep-shift-degrade", cfg: ep, reqs: longDecode,
			degrade: [2]time.Duration{5 * time.Second, 9 * time.Second},
			exercised: func(_ *Engine, steady steadySteps) bool {
				return steady.shiftIn > 0 && steady.shiftOut > 0
			}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine := func() (*Engine, *obs.Stream) {
				e := mustEngine(t, tc.cfg)
				if tc.degrade[1] > 0 {
					e.setDegrade(3, tc.degrade[0], tc.degrade[1])
				}
				return e, attachIters(e)
			}
			stepped, steppedObs := engine()
			for _, r := range tc.reqs {
				stepped.enqueue(r)
			}
			var steady steadySteps
			for steps := 0; !stepped.finished(); steps++ {
				if steps > 1_000_000 {
					t.Fatal("stepped engine did not drain")
				}
				if steadyDecode(stepped) {
					steady.n++
					if stepped.parFor(perf.Batch{DecodeSeqs: len(stepped.running)}) != tc.cfg.Par {
						if stepped.degraded(stepped.now) {
							steady.shiftIn++
						} else {
							steady.shiftOut++
						}
					}
				}
				stepOne(t, stepped)
			}
			if exercised := tc.exercised == nil || tc.exercised(stepped, steady); steady.n == 0 || !exercised {
				t.Fatalf("test premise broken: %+v steady decode steps, feature exercised: %v", steady, exercised)
			}

			ran, ranObs := engine()
			ranRows := ran.Run(tc.reqs)

			// Cut: every arrival enqueued up front, stepped over random
			// horizons. Half the horizons first settle the open stretch,
			// as a serial reader of KV state does between advances.
			// resumed counts the horizons that found a stretch open and
			// will book more of it.
			rng := tensor.NewRNG(uint64(ci) + 1)
			cut, cutObs := engine()
			for _, r := range tc.reqs {
				cut.enqueue(r)
			}
			resumed := 0
			for h := time.Duration(0); !cut.finished(); {
				h += horizonGap(rng)
				if cut.ahead.left > 0 && cut.now < h {
					resumed++
				}
				if rng.Intn(2) == 0 {
					cut.settle()
				}
				cut.stepUntil(h, true)
				if err := checkNoneDone(cut); err != nil {
					t.Fatalf("cut at %v: %v", h, err)
				}
			}
			if resumed == 0 && tc.cfg.Stack.Spec.VerifyTokensPerSeq() == 1 {
				t.Fatal("test premise broken: no horizon resumed a stretch")
			}

			// Routed: the controller's pattern, advance to the arrival and
			// enqueue it there, with random horizons in between.
			routed, routedObs := engine()
			h := time.Duration(0)
			advance := func(h time.Duration, final bool) {
				routed.stepUntil(h, final)
				if err := checkNoneDone(routed); err != nil {
					t.Fatalf("routed at %v: %v", h, err)
				}
			}
			for _, r := range tc.reqs {
				for g := horizonGap(rng); h+g < r.Arrival; g = horizonGap(rng) {
					h += g
					advance(h, false)
				}
				h = r.Arrival
				advance(h, false)
				routed.enqueue(r)
			}
			advance(noHorizon, true)

			type counters struct {
				Now                                         time.Duration
				Iters, BaseIters, ShiftIters, TokensServed  int
				Preemptions, SLOPreempts, Shed, ShedTokens  int
				BacklogTokens, CompletedTokens, KVFreeBlock int
				Cost                                        perf.Cost
			}
			snap := func(e *Engine) counters {
				return counters{e.now, e.iters, e.baseIters, e.shiftIters, e.tokensServed,
					e.preemptions, e.sloPreempts, e.shed, e.shedTokens,
					e.backlogTokens, e.completedTokens, e.blocks.free, e.cost}
			}
			want := stepped.appendMetrics(nil)
			for _, run := range []struct {
				name string
				e    *Engine
				o    *obs.Stream
				rows []RequestMetrics
			}{
				{"Run", ran, ranObs, ranRows},
				{"cut", cut, cutObs, cut.appendMetrics(nil)},
				{"routed", routed, routedObs, routed.appendMetrics(nil)},
			} {
				if len(run.rows) != len(want) {
					t.Fatalf("%s returned %d rows, stepping %d", run.name, len(run.rows), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(run.rows[i], want[i]) {
						t.Fatalf("%s row %d diverged:\n  got %+v\n step %+v", run.name, i, run.rows[i], want[i])
					}
				}
				if g, w := snap(run.e), snap(stepped); g != w {
					t.Fatalf("%s counters diverged:\n  got %+v\n step %+v", run.name, g, w)
				}
				if !reflect.DeepEqual(run.o.Events(), steppedObs.Events()) {
					t.Fatalf("%s obs events diverged", run.name)
				}
				if !reflect.DeepEqual(run.o.Iters(), steppedObs.Iters()) {
					t.Fatalf("%s obs iteration records diverged", run.name)
				}
			}
		})
	}
}

// TestRunAheadReleasesShedLatch: the shed passes a stretch skips would
// each have seen an empty queue and released the projected-attainment
// latch, so a stretch must release it too. The latch is set by the pass
// that sheds the only waiter, just before a stretch of steady decodes.
func TestRunAheadReleasesShedLatch(t *testing.T) {
	cfg := tp8Cfg(llamaCM(t))
	cfg.Admission = &AdmissionConfig{Policy: AdmissionProjected}
	e := mustEngine(t, cfg)
	for i := 0; i < 4; i++ {
		e.enqueue(workload.Request{ID: i, InputTokens: 512, OutputTokens: 1000})
	}
	for len(e.running) < 4 || !e.running[3].prefillDone() {
		stepOne(t, e)
	}
	e.enqueue(workload.Request{ID: 4, Arrival: e.now, InputTokens: 512, OutputTokens: 8,
		SLO: workload.Deadline(time.Nanosecond, 0)})
	iters := e.iters
	e.stepUntil(e.now+100*time.Millisecond, true)
	if e.shed != 1 || e.iters-iters < 2 {
		t.Fatalf("test premise broken: %d shed, %d iterations", e.shed, e.iters-iters)
	}
	if e.admission.shedding {
		t.Fatal("the shed latch outlived the empty queue the stretch ran with")
	}
}

// TestRunAheadOrdersRunningQueue: under SLO scheduling every scheduled
// iteration puts the running queue in priority order, so a stretch that
// starts without scheduling must order it too. Two batch runners decode
// when an interactive request of higher priority is admitted behind
// them; once its prefill is done the engine runs ahead, and a crash
// drain then reports the running queue. It must be in the stepped
// engine's order, the interactive request first.
func TestRunAheadOrdersRunningQueue(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, InputTokens: 512, OutputTokens: 4000, Class: "batch"},
		{ID: 1, InputTokens: 512, OutputTokens: 4000, Class: "batch"},
		{ID: 2, Arrival: time.Second, InputTokens: 512, OutputTokens: 4000, Class: "interactive", Priority: 1},
	}
	lostIDs := func(advance func(e *Engine)) []int {
		e := mustEngine(t, tp8Cfg(llamaCM(t)))
		for _, r := range reqs {
			e.enqueue(r)
		}
		advance(e)
		for _, s := range e.running {
			if !s.prefillDone() || len(e.running) != 3 {
				t.Fatal("test premise broken: the three requests are not all decoding at 2 s")
			}
		}
		lost, _ := e.crashDrain()
		var ids []int
		for _, r := range lost {
			ids = append(ids, r.ID)
		}
		return ids
	}
	stepped := lostIDs(func(e *Engine) {
		for e.now < 2*time.Second {
			stepOne(t, e)
		}
	})
	ran := lostIDs(func(e *Engine) { e.stepUntil(2*time.Second, true) })
	if want := []int{2, 0, 1}; !reflect.DeepEqual(stepped, want) || !reflect.DeepEqual(ran, stepped) {
		t.Fatalf("lost in order %v after running ahead, %v after stepping, want %v", ran, stepped, want)
	}
}

// TestControllerRunMatchesEngineReplay: on an 8-replica independent
// fleet behind the cache-aware router, with measured prefix caches and a
// sessioned trace, every arrival cuts every replica's run-ahead stretch
// at a horizon, and the next advance resumes it. Each replica's rows,
// iteration count and accumulated cost must equal its share of the
// trace replayed through a fresh engine's Run, which sees no horizons.
func TestControllerRunMatchesEngineReplay(t *testing.T) {
	cl := DPCluster("replay", Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 1},
		PrefixCache: &PrefixCacheConfig{ShareFraction: 0.75}}, 8)
	ctl, err := newController(Geo{
		Name: cl.Name, Regions: []Region{{Name: cl.Name, Configs: cl.Configs, Router: NewCacheAwareRouter()}},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := sessionedTrace(t, 5, 16)
	res, err := ctl.run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("test premise broken: the prefix caches never hit")
	}
	replicaOf := make(map[int]string, len(res.PerRequest))
	for _, m := range res.PerRequest {
		replicaOf[m.ID] = m.Replica
	}
	for i, rep := range ctl.regions[0].replicas {
		e := rep.engine
		var share []workload.Request
		for _, r := range tr.Requests {
			if replicaOf[r.ID] == e.cfg.Name {
				share = append(share, r)
			}
		}
		if len(share) == 0 {
			t.Fatalf("test premise broken: replica %d served nothing", i)
		}
		replay := mustEngine(t, cl.Configs[i])
		if got, want := e.appendMetrics(nil), replay.Run(share); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d: controller rows differ from its replayed share", i)
		}
		if e.iters != replay.iters || e.cost != replay.cost {
			t.Fatalf("replica %d: controller ran %d iterations costing %+v, replay %d costing %+v",
				i, e.iters, e.cost, replay.iters, replay.cost)
		}
	}
}
