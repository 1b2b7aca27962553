package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// encodeResult renders a Result canonically for byte-for-byte
// comparison: the full JSON encoding (per-request metrics in gather
// order, every counter, fleet and region accounting) plus the
// percentile summaries of the aggregate samples, whose raw values JSON
// does not reach.
func encodeResult(t *testing.T, res *Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + fmt.Sprintf("|ttft=%v|tpot=%v|compl=%v",
		res.TTFT.Summarize(), res.TPOT.Summarize(), res.Completion.Summarize())
}

// determinismTrace is a bursty SLO-stamped workload heavy enough to
// queue, preempt, and trigger scaling on small single-GPU fleets.
func determinismTrace(t *testing.T, seed uint64) *workload.Trace {
	t.Helper()
	sizes := workload.LognormalSize{
		MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
		MedianOut: 200, SigmaOut: 0.5, MaxOut: 600, MinOut: 16,
	}
	dur := 45 * time.Second
	parts := []*workload.Trace{
		workload.Poisson("steady", tensor.NewRNG(seed), 1.5, dur, sizes, "interactive"),
		workload.Burst("burst", tensor.NewRNG(seed^0xb), 40, dur/3, 10*time.Second, sizes, "interactive"),
	}
	tr := workload.Merge("determinism", parts...)
	tr.Stamp("", 1, workload.Deadline(1500*time.Millisecond, 200*time.Millisecond))
	return tr
}

// cachedDeterminismTrace layers the cache keys onto the determinism
// workload: recurring sessions (so the measured prefix cache has hits
// to count) and repeated prompts (so the shared tier intercepts).
func cachedDeterminismTrace(t *testing.T, seed uint64) *workload.Trace {
	t.Helper()
	tr := determinismTrace(t, seed)
	for i := range tr.Requests {
		tr.Requests[i].Session = fmt.Sprintf("sess-%d", i%5)
	}
	return tr.StampPromptKeys(seed, 0.3, 16)
}

// encodeObs renders an Observer's exported artifacts — the Chrome
// trace JSON and the series CSV, the exact bytes simctl -trace/-series
// would write — plus the throughput series and every stream's
// iteration records behind it, so repeat-run comparisons extend to
// observability output, not just Results.
func encodeObs(t *testing.T, o *obs.Observer) string {
	t.Helper()
	var trace, series bytes.Buffer
	if err := o.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&series, "\x1f%v", o.ThroughputSeries(time.Second).Buckets())
	for _, s := range o.Streams() {
		fmt.Fprintf(&series, "\n%s/%s %v", s.Region, s.Track, s.Iters())
	}
	return trace.String() + "\x1f" + series.String()
}

// TestRejectReasonsSplitRejectedCount exercises both named rejection
// causes and checks the Result split covers the total.
func TestRejectReasonsSplitRejectedCount(t *testing.T) {
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	e := mustEngine(t, cfg)
	capTok := e.KVCapacityTokens()

	// A prompt larger than the whole cache, and one that fits at arrival
	// but whose preemption-by-recompute growth pushes it past the cache.
	reqs := []workload.Request{
		{ID: 0, InputTokens: capTok + 1, OutputTokens: 4},
		{ID: 1, InputTokens: capTok - e.cfg.BlockTokens, OutputTokens: capTok},
	}
	res, err := SingleEngine("rej", cfg).Run(&workload.Trace{Name: "rej", Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 2 || res.RejectedUnservable != 2 {
		t.Fatalf("rejected %d (unservable %d), want 2/2", res.Rejected, res.RejectedUnservable)
	}
	for _, m := range res.PerRequest {
		if m.Rejected && m.RejectReason != RejectUnservablePrompt {
			t.Fatalf("request %d rejected with reason %q", m.ID, m.RejectReason)
		}
	}
}

// TestLoneRunnerRejectionCountsKVExhausted pins resolveEmpty's
// memory-stuck branch onto the KV-exhausted stat: an admitted lone
// runner the engine gives up on is a different failure (and a different
// regression signal) than a prompt that never fit.
func TestLoneRunnerRejectionCountsKVExhausted(t *testing.T) {
	cm := llamaCM(t)
	e := mustEngine(t, Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}})
	s := &seq{firstTok: -1, effInput: 64, prefilled: 32,
		req: workload.Request{ID: 1, InputTokens: 64, OutputTokens: 8}}
	e.blocks.grow(&s.kvBlocks, 32)
	e.running = []*seq{s}
	if !e.resolveEmpty() {
		t.Fatal("resolveEmpty did not act on the memory-stuck lone runner")
	}
	if s.rejectReason != RejectKVExhausted {
		t.Fatalf("lone runner rejected with reason %q, want %q", s.rejectReason, RejectKVExhausted)
	}
	res := buildResult("rej", e.appendMetrics(nil), []*Engine{e})
	if res.RejectedKVExhausted != 1 || res.Rejected != 1 {
		t.Fatalf("stat split kv=%d rejected=%d, want 1/1", res.RejectedKVExhausted, res.Rejected)
	}
}
