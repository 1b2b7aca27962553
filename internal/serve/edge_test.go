package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/specdec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Shift + speculative decoding compose: spec decode multiplies token
// yield while Algorithm 2 still routes small verify batches to the TP
// shift config.
func TestShiftWithSpecDecode(t *testing.T) {
	cm := llamaCM(t)
	cfg := shiftCfg(cm)
	cfg.Stack = specdec.Stack{Spec: specdec.Spec{Len: 3, Acceptance: 0.7}}
	e := mustEngine(t, cfg)
	ms := e.Run(workload.Single(4096, 200).Requests)
	if ms[0].Rejected {
		t.Fatal("rejected")
	}
	if e.shiftIters == 0 {
		t.Fatal("decode-with-spec batches should still shift to TP")
	}
	// Decode iterations process 4 verify tokens per seq but yield ~2.8
	// output tokens per step: far fewer iterations than 200.
	if e.iters > 110 {
		t.Fatalf("iters = %d, spec decode should cut decode steps ~2.8x", e.iters)
	}
}

// A one-output-token request: TTFT == completion, TPOT zero.
func TestSingleOutputToken(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	ms := e.Run([]workload.Request{{ID: 0, InputTokens: 1000, OutputTokens: 1}})
	m := ms[0]
	if m.Rejected || m.TTFT <= 0 {
		t.Fatalf("bad metrics %+v", m)
	}
	if m.Completion != m.TTFT {
		t.Fatalf("1-token completion %v != TTFT %v", m.Completion, m.TTFT)
	}
	if m.TPOT != 0 {
		t.Fatalf("1-token TPOT = %v", m.TPOT)
	}
}

// A one-input-token request (minimal prefill).
func TestSingleInputToken(t *testing.T) {
	e := mustEngine(t, tp8Cfg(llamaCM(t)))
	ms := e.Run([]workload.Request{{ID: 0, InputTokens: 1, OutputTokens: 50}})
	if ms[0].Rejected || ms[0].Completion <= 0 {
		t.Fatalf("bad metrics %+v", ms[0])
	}
}

// MaxSeqs=1 serializes requests completely.
func TestMaxSeqsOne(t *testing.T) {
	cm := llamaCM(t)
	cfg := tp8Cfg(cm)
	cfg.MaxSeqs = 1
	e := mustEngine(t, cfg)
	ms := e.Run(workload.Closed("c", 4, 1000, 20).Requests)
	for i := 1; i < len(ms); i++ {
		// Each request starts only after the previous finished: first
		// tokens are strictly ordered and spaced by full completions.
		if ms[i].TTFT <= ms[i-1].Completion {
			t.Fatalf("request %d overlapped its predecessor under MaxSeqs=1", i)
		}
	}
}

// Tiny KV block size stresses the block arithmetic.
func TestBlockTokensOne(t *testing.T) {
	cm := llamaCM(t)
	cfg := tp8Cfg(cm)
	cfg.BlockTokens = 1
	e := mustEngine(t, cfg)
	ms := e.Run(workload.Closed("c", 3, 500, 30).Requests)
	for _, m := range ms {
		if m.Rejected {
			t.Fatal("rejected")
		}
	}
	if err := checkKV(e); err != nil {
		t.Fatal(err)
	}
}

// Lockstep cluster with one replica finishing long before the other:
// the finished replica must not stall the cluster or corrupt metrics.
func TestLockstepUnevenFinish(t *testing.T) {
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	cl := DPCluster("dp", cfg, 2)
	cl.Lockstep = true
	reqs := []workload.Request{
		{ID: 0, Arrival: 0, InputTokens: 500, OutputTokens: 5},           // replica A, quick
		{ID: 1, Arrival: 0, InputTokens: 8000, OutputTokens: 400},        // replica B, long
		{ID: 2, Arrival: time.Minute, InputTokens: 500, OutputTokens: 5}, // arrives later
	}
	res, err := cl.Run(&workload.Trace{Name: "uneven", Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || res.TTFT.N() != 3 {
		t.Fatalf("result %+v", summary(res))
	}
	for _, m := range res.PerRequest {
		if m.TTFT <= 0 || m.Completion < m.TTFT {
			t.Fatalf("pathological metrics: %+v", m)
		}
	}
}

// Lockstep cluster that goes fully idle between arrivals jumps the
// shared clock instead of spinning.
func TestLockstepIdleGap(t *testing.T) {
	cm := llamaCM(t)
	cl := DPCluster("dp", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
	cl.Lockstep = true
	reqs := []workload.Request{
		{ID: 0, Arrival: 0, InputTokens: 500, OutputTokens: 5},
		{ID: 1, Arrival: 10 * time.Minute, InputTokens: 500, OutputTokens: 5},
	}
	res, err := cl.Run(&workload.Trace{Name: "gap", Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	// The second request's TTFT is measured from ITS arrival: small.
	for _, m := range res.PerRequest {
		if m.TTFT > 5*time.Second {
			t.Fatalf("idle gap leaked into TTFT: %v", m.TTFT)
		}
	}
}

// The Shift engine sized with its extra weight copy has less KV than
// plain SP — Eq. 1 made operational.
func TestShiftKVSmallerThanSP(t *testing.T) {
	cm := llamaCM(t)
	sp := mustEngine(t, Config{CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}})
	shift := mustEngine(t, shiftCfg(cm))
	if shift.KVCapacityTokens() >= sp.KVCapacityTokens() {
		t.Fatalf("shift KV %d should be below SP %d (shift model overhead)",
			shift.KVCapacityTokens(), sp.KVCapacityTokens())
	}
}

// On-the-fly slicing holds no shift copy, so a Shift engine built from
// that cost model gets the copy-free budget, rounded down to whole
// blocks: more KV than the separate-models engine, as the memory
// strategy ablation reports.
func TestOnTheFlyShiftEngineGetsSlicedBudget(t *testing.T) {
	p := perf.DefaultParams()
	p.OnTheFlySlicing = true
	cm := perf.MustNew(hw.P5enNode(), model.Llama70B(), p)
	cfg := shiftCfg(cm)
	got := mustEngine(t, cfg).KVCapacityTokens()
	want := cm.KVCapacityTokens(cfg.Par, perf.EPConfig{}, false) / DefaultBlockTokens * DefaultBlockTokens
	if got != want {
		t.Fatalf("on-the-fly Shift engine KV = %d, want the sliced budget %d", got, want)
	}
	if sep := mustEngine(t, shiftCfg(llamaCM(t))).KVCapacityTokens(); got <= sep {
		t.Fatalf("on-the-fly KV %d should exceed separate-models KV %d", got, sep)
	}
}

// Arrival bursts larger than MaxSeqs queue FIFO without loss.
func TestBurstBeyondMaxSeqs(t *testing.T) {
	cm := llamaCM(t)
	cfg := tp8Cfg(cm)
	cfg.MaxSeqs = 8
	e := mustEngine(t, cfg)
	ms := e.Run(workload.Closed("burst", 40, 800, 10).Requests)
	if len(ms) != 40 {
		t.Fatalf("served %d/40", len(ms))
	}
	for _, m := range ms {
		if m.Rejected {
			t.Fatal("rejected under MaxSeqs pressure")
		}
	}
}

// blockedHeadTrace queues a small request ten minutes behind a prompt of
// 99.5% of a capTokens-token KV cache. Under an unbounded chunk budget
// the whole prompt is the first chunk, so even an empty engine never
// admits it: it sits above the 1% free-block watermark.
func blockedHeadTrace(capTokens int) *workload.Trace {
	return &workload.Trace{Name: "blocked-head", Requests: []workload.Request{
		{ID: 0, InputTokens: capTokens * 995 / 1000, OutputTokens: 4},
		{ID: 1, Arrival: 10 * time.Minute, InputTokens: 100, OutputTokens: 4},
	}}
}

// blockedHeadCfg is the one-GPU config blockedHeadTrace blocks.
func blockedHeadCfg(cm *perf.CostModel) Config {
	cfg := dpCfg(cm)
	cfg.ChunkBudget = 1 << 30
	return cfg
}

// At end of trace an empty engine rejects only the waiters it can never
// admit; the requests queued behind them are served. Both stepping modes
// end that way.
func TestUnadmittableHeadRejectsOnlyItself(t *testing.T) {
	cfg := blockedHeadCfg(llamaCM(t))
	tr := blockedHeadTrace(mustEngine(t, cfg).KVCapacityTokens())
	for _, lockstep := range []bool{false, true} {
		cl := DPCluster("blocked", cfg, 1)
		cl.Lockstep = lockstep
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.PerRequest {
			switch {
			case m.ID == 0 && (!m.Rejected || m.RejectReason != RejectUnservablePrompt):
				t.Errorf("lockstep=%v: blocked head %+v, want rejected %s", lockstep, m, RejectUnservablePrompt)
			case m.ID == 1 && m.Rejected:
				t.Errorf("lockstep=%v: request queued behind the blocked head was rejected (%s)", lockstep, m.RejectReason)
			}
		}
	}
}

// A one-replica lockstep fleet has no peer to wait for, so its shared
// clock is its engine's clock: it must serve exactly like the same
// replica stepped on its own. Both loops plan through Engine.nextPlan,
// so this pins the lockstep loop around it, including the resolve paths
// (the storm preempts, the blocked head rejects).
func TestOneReplicaLockstepMatchesIndependent(t *testing.T) {
	cm := llamaCM(t)
	blocked := blockedHeadCfg(cm)
	cases := []struct {
		name string
		cfg  Config
		tr   *workload.Trace
	}{
		{"shift-bursty", shiftCfg(cm), trace.Bursty(7, 30*time.Second)},
		{"preempt-storm", dpCfg(cm), workload.Closed("storm", 64, 1024, 2048)},
		{"blocked-head", blocked, blockedHeadTrace(mustEngine(t, blocked).KVCapacityTokens())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var res [2]*Result
			for i, lockstep := range []bool{false, true} {
				cl := DPCluster(c.name, c.cfg, 1)
				cl.Lockstep = lockstep
				r, err := cl.Run(c.tr)
				if err != nil {
					t.Fatal(err)
				}
				res[i] = r
			}
			ind, lock := res[0], res[1]
			if c.name == "preempt-storm" && ind.Preemptions == 0 {
				t.Fatal("cell premise broken: the storm never preempted")
			}
			if !reflect.DeepEqual(lock.PerRequest, ind.PerRequest) {
				t.Error("lockstep rows differ from independent stepping")
			}
			if lock.Iters != ind.Iters || lock.Cost != ind.Cost {
				t.Errorf("lockstep iters %d cost %+v, independent iters %d cost %+v", lock.Iters, lock.Cost, ind.Iters, ind.Cost)
			}
		})
	}
}
