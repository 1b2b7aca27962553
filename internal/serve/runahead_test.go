package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/specdec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// steadyDecode reports whether e's next iteration would be a steady
// decode step, one a run-ahead stretch may skip scheduling for: every
// runner decodes, none finishes on it, nothing waits and no arrival is
// due.
func steadyDecode(e *Engine) bool {
	if len(e.running) == 0 || e.waiting.len() > 0 {
		return false
	}
	if a := e.nextArrival(); a >= 0 && a <= e.now {
		return false
	}
	for _, s := range e.running {
		if !s.prefillDone() || int(s.decoded)+1 >= s.req.OutputTokens {
			return false
		}
	}
	return true
}

// TestRunAheadMatchesSteppedEngine runs each engine twice: once one
// scheduling step at a time with stepOne, whose horizon stops every
// run-ahead stretch before its first step, and once with Run, which runs
// steady decode stretches ahead. The two must agree on every request's
// metrics, every counter, the accumulated cost and every obs record.
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
	cases := []struct {
		name string
		cfg  Config
		reqs []workload.Request
		// degrade, when set, arms a 3x degrade window over it: a long
		// decode stretch of 8 requests runs through both of its edges.
		degrade [2]time.Duration
		// exercised, when set, reports whether the stepped run used the
		// feature the case is about.
		exercised func(e *Engine) bool
	}{
		{name: "bursty-shift", cfg: shiftCfg(cm), reqs: trace.Bursty(7, 30*time.Second).Requests},
		{name: "preempt-storm", cfg: Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
			reqs:      workload.Closed("storm", 64, 1024, 2048).Requests,
			exercised: func(e *Engine) bool { return e.preemptions > 0 }},
		{name: "slo-deadline-admission", cfg: withSLO, reqs: sloTrace.Requests,
			exercised: func(e *Engine) bool { return e.shed > 0 }},
		{name: "degrade-mid-stretch", cfg: tp8Cfg(cm), reqs: workload.Closed("long", 8, 512, 2000).Requests,
			degrade: [2]time.Duration{5 * time.Second, 9 * time.Second}},
		{name: "prefix-cache", cfg: prefix, reqs: sessionedTrace(t, 3, 6).Requests,
			exercised: func(e *Engine) bool { return e.cacheHits > 0 }},
		{name: "ep", cfg: ep, reqs: trace.Bursty(9, 30*time.Second).Requests},
		{name: "spec-decode", cfg: spec, reqs: trace.Bursty(7, 30*time.Second).Requests},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stepped, ran := mustEngine(t, tc.cfg), mustEngine(t, tc.cfg)
			steppedObs, ranObs := attachIters(stepped), attachIters(ran)
			if tc.degrade[1] > 0 {
				stepped.setDegrade(3, tc.degrade[0], tc.degrade[1])
				ran.setDegrade(3, tc.degrade[0], tc.degrade[1])
			}
			for _, r := range tc.reqs {
				stepped.enqueue(r)
			}
			steady := 0
			for steps := 0; !stepped.finished(); steps++ {
				if steps > 1_000_000 {
					t.Fatal("stepped engine did not drain")
				}
				if steadyDecode(stepped) {
					steady++
				}
				stepOne(stepped)
			}
			if steady == 0 || tc.exercised != nil && !tc.exercised(stepped) {
				t.Fatalf("test premise broken: %d steady decode steps, feature exercised: %v",
					steady, tc.exercised == nil || tc.exercised(stepped))
			}
			got := ran.Run(tc.reqs)
			want := stepped.appendMetrics(nil)
			if len(got) != len(want) {
				t.Fatalf("Run returned %d rows, stepping %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("row %d diverged:\n run %+v\nstep %+v", i, got[i], want[i])
				}
			}
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
					e.backlogTokens, e.completedTokens, e.alloc.FreeBlocks(), e.cost}
			}
			if g, w := snap(ran), snap(stepped); g != w {
				t.Fatalf("counters diverged:\n run %+v\nstep %+v", g, w)
			}
			if !reflect.DeepEqual(ranObs.Events(), steppedObs.Events()) {
				t.Fatal("obs events diverged")
			}
			if !reflect.DeepEqual(ranObs.Iters(), steppedObs.Iters()) {
				t.Fatal("obs iteration records diverged")
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
		stepOne(e)
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
