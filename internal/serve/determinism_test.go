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

// runBoth runs the same deployment serially and on a forced-wide worker
// pool and returns both encodings. Run under -race, this is also the
// data-race probe for the concurrent stepping paths.
func runBoth(t *testing.T, run func(parallelism int) (*Result, error)) (serial, parallel string) {
	t.Helper()
	sres, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := run(4)
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(t, sres), encodeResult(t, pres)
}

// TestClusterRunParallelMatchesSerial pins the contract on a featureless
// fleet: stepping independent replicas on a worker pool between
// controller events is byte-identical to the serial loop.
func TestClusterRunParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 7)
	serial, parallel := runBoth(t, func(p int) (*Result, error) {
		cl := DPCluster("det", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
		cl.Parallelism = p
		return cl.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel Cluster.Run diverged from the serial path")
	}
}

// TestAutoscaleParallelMatchesSerial pins the contract on the
// autoscaled path, where replicas are stepped concurrently between
// controller evaluation horizons while spawns, drains, and routing stay
// serial.
func TestAutoscaleParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 11)
	serial, parallel := runBoth(t, func(p int) (*Result, error) {
		cl := DPCluster("det-auto", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
		cl.Parallelism = p
		cl.Autoscale = &AutoscaleConfig{
			Scaler:    NewQueueDepthAutoscaler(),
			Interval:  5 * time.Second,
			ColdStart: 5 * time.Second,
			Min:       2,
			Max:       6,
		}
		return cl.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel autoscaled run diverged from the serial path")
	}
}

// TestGeoParallelMatchesSerial pins the contract on the geo tier:
// regions (and replicas within them) advance concurrently between
// controller events, while geo routing and per-region evaluation ticks
// stay serial and index-ordered.
func TestGeoParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 13)
	// Stamp half the traffic as remote-origin so spill-over has a real
	// two-region workload.
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	serial, parallel := runBoth(t, func(p int) (*Result, error) {
		regions := make([]Region, 2)
		for i := range regions {
			regions[i] = Region{
				Configs: []Config{
					{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
					{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
				},
				Autoscale: &AutoscaleConfig{
					Scaler:    NewQueueDepthAutoscaler(),
					Interval:  5 * time.Second,
					ColdStart: 5 * time.Second,
					Min:       2,
					Max:       4,
				},
			}
		}
		g := Geo{
			Name:        "det-geo",
			Topology:    UniformTopology(120*time.Millisecond, "west", "east"),
			Regions:     regions,
			Router:      NewSpillOverRouter(),
			Parallelism: p,
		}
		return g.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel Geo.Run diverged from the serial path")
	}
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

// TestCachedClusterParallelMatchesSerial extends the Cluster
// determinism contract to the measured caches: the per-replica prefix
// cache, the shared tier, and the stateful cache-aware router must all
// be byte-identical between the serial and pooled stepping paths.
func TestCachedClusterParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 17)
	serial, parallel := runBoth(t, func(p int) (*Result, error) {
		cfg := Config{
			CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
			PrefixCache: &PrefixCacheConfig{ShareFraction: 0.5, CapacityTokens: 1 << 16},
		}
		cl := DPCluster("det-cache", cfg, 4)
		cl.Parallelism = p
		cl.Router = NewCacheAwareRouter()
		cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
		return cl.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel cached Cluster.Run diverged from the serial path")
	}
}

// TestCachedAutoscaleParallelMatchesSerial pins the same contract where
// replicas come and go: cache state lives on engines (spawned cold,
// drained away) and the shared tier sits before the fault/scale router.
func TestCachedAutoscaleParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 19)
	serial, parallel := runBoth(t, func(p int) (*Result, error) {
		cfg := Config{
			CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
			PrefixCache: &PrefixCacheConfig{ShareFraction: 0.4},
		}
		cl := DPCluster("det-cache-auto", cfg, 2)
		cl.Parallelism = p
		cl.Router = NewCacheAwareRouter()
		cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
		cl.Autoscale = &AutoscaleConfig{
			Scaler:    NewQueueDepthAutoscaler(),
			Interval:  5 * time.Second,
			ColdStart: 5 * time.Second,
			Min:       2,
			Max:       6,
		}
		return cl.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel cached autoscaled run diverged from the serial path")
	}
}

// TestCachedGeoParallelMatchesSerial pins the geo tier with both cache
// layers active: the shared tier intercepts before region placement and
// every regional engine runs its own measured prefix cache.
func TestCachedGeoParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 23)
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	serial, parallel := runBoth(t, func(p int) (*Result, error) {
		cfg := Config{
			CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
			PrefixCache: &PrefixCacheConfig{ShareFraction: 0.5},
		}
		regions := make([]Region, 2)
		for i := range regions {
			regions[i] = Region{
				Configs: []Config{cfg, cfg},
				Router:  NewCacheAwareRouter(),
			}
		}
		g := Geo{
			Name:        "det-cache-geo",
			Topology:    UniformTopology(120*time.Millisecond, "west", "east"),
			Regions:     regions,
			Router:      NewSpillOverRouter(),
			SharedCache: &SharedCacheConfig{Latency: 20 * time.Millisecond},
			Parallelism: p,
		}
		return g.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel cached Geo.Run diverged from the serial path")
	}
}

// encodeObs renders an Observer's exported artifacts — the Chrome
// trace JSON and the series CSV, the exact bytes simctl -trace/-series
// would write — plus the throughput series and every stream's
// iteration records behind it, so the determinism contract extends to
// observability output (including what concurrently stepped engines
// record), not just Results.
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

// runBothTraced is runBoth with an Observer attached to each run:
// serial and parallel encodings cover the Result plus the exported
// trace and series bytes.
func runBothTraced(t *testing.T, run func(p int, o *obs.Observer) (*Result, error)) (serial, parallel string) {
	t.Helper()
	so := obs.NewObserver()
	sres, err := run(1, so)
	if err != nil {
		t.Fatal(err)
	}
	po := obs.NewObserver()
	pres, err := run(4, po)
	if err != nil {
		t.Fatal(err)
	}
	if so.Empty() || po.Empty() {
		t.Fatal("traced runs produced no observability output")
	}
	return encodeResult(t, sres) + encodeObs(t, so),
		encodeResult(t, pres) + encodeObs(t, po)
}

// TestTracedClusterParallelMatchesSerial extends the Cluster
// determinism contract to the trace and series exports: spans from
// concurrently stepped replicas (plus shared-cache intercepts on the
// balancer track) must serialize byte-identically at every pool width.
func TestTracedClusterParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 7)
	serial, parallel := runBothTraced(t, func(p int, o *obs.Observer) (*Result, error) {
		cl := DPCluster("det-trace", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
		cl.Parallelism = p
		cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
		cl.Obs = o
		return cl.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel traced Cluster.Run diverged from the serial path")
	}
}

// TestTracedAutoscaleParallelMatchesSerial pins trace/series bytes on
// the hardest cluster path: autoscaling plus a crash-restart and a
// crash-dead fault, so the encodings cover scale events, the crash,
// lost-work and retry hops, ejection, and readmission.
func TestTracedAutoscaleParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 11)
	plan := &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
		{Replica: 1, At: 15 * time.Second, Restart: 25 * time.Second},
		{Replica: 0, At: 20 * time.Second},
	}}
	serial, parallel := runBothTraced(t, func(p int, o *obs.Observer) (*Result, error) {
		cl := DPCluster("det-trace-auto", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
		cl.Parallelism = p
		cl.Router = NewLiveLeastLoadedRouter()
		cl.Autoscale = &AutoscaleConfig{
			Scaler:    NewQueueDepthAutoscaler(),
			Interval:  5 * time.Second,
			ColdStart: 5 * time.Second,
			Min:       2,
			Max:       6,
		}
		cl.Faults = plan
		cl.Obs = o
		return cl.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel traced autoscaled run diverged from the serial path")
	}
}

// TestTracedGeoParallelMatchesSerial pins trace/series bytes on the geo
// tier under a home-region outage: per-region processes, the geo
// balancer track, and cross-region refugee hops must all export
// byte-identically between serial and pooled region stepping.
func TestTracedGeoParallelMatchesSerial(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 13)
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	plan := &workload.FaultPlan{Outages: []workload.RegionOutage{
		{Region: "west", Start: 15 * time.Second, End: 25 * time.Second},
	}}
	serial, parallel := runBothTraced(t, func(p int, o *obs.Observer) (*Result, error) {
		regions := make([]Region, 2)
		for i := range regions {
			regions[i] = Region{
				Configs: []Config{
					{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
					{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
				},
				Autoscale: &AutoscaleConfig{
					Scaler:    NewQueueDepthAutoscaler(),
					Interval:  5 * time.Second,
					ColdStart: 5 * time.Second,
					Min:       2,
					Max:       4,
				},
			}
		}
		g := Geo{
			Name:        "det-trace-geo",
			Topology:    UniformTopology(120*time.Millisecond, "west", "east"),
			Regions:     regions,
			Router:      NewSpillOverRouter(),
			Faults:      plan,
			Parallelism: p,
		}
		g.Obs = o
		return g.Run(tr)
	})
	if serial != parallel {
		t.Fatal("parallel traced Geo.Run diverged from the serial path")
	}
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
	if err := e.alloc.Grow(&s.kvBlocks, 32); err != nil {
		t.Fatal(err)
	}
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
