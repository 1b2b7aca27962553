package serve

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// This file pins the observability layer's two core promises: span
// conservation (every request's span graph ends in exactly one terminal
// event that matches its Result disposition, even through crashes,
// retries, and cross-region refugee hops) and the disabled path's zero
// cost (a nil stream is one pointer compare, no allocations).

// wantTerminal maps a request's Result disposition to the terminal
// event kind its span graph must end in.
func wantTerminal(m RequestMetrics) obs.Kind {
	switch {
	case m.Replica == SharedCacheReplica:
		return obs.EvSharedHit
	case m.Rejected && m.RejectReason == RejectCrashDropped:
		return obs.EvDrop
	case m.Rejected:
		return obs.EvReject
	}
	return obs.EvFinish
}

// checkSpanConservation asserts the span-conservation property between one
// traced run's Observer and its Result.
func checkSpanConservation(t *testing.T, o *obs.Observer, res *Result) {
	t.Helper()
	terminals := map[int][]obs.Kind{}
	for _, se := range o.Events() {
		if se.Req == obs.NoRequest || !se.Kind.Terminal() {
			continue
		}
		terminals[se.Req] = append(terminals[se.Req], se.Kind)
	}
	for _, m := range res.PerRequest {
		got := terminals[m.ID]
		if len(got) != 1 {
			t.Fatalf("request %d has %d terminal events %v, want exactly 1", m.ID, len(got), got)
		}
		if want := wantTerminal(m); got[0] != want {
			t.Fatalf("request %d (replica %q rejected=%v reason %q): trace ends in %v, want %v",
				m.ID, m.Replica, m.Rejected, m.RejectReason, got[0], want)
		}
	}
	if len(terminals) != len(res.PerRequest) {
		t.Fatalf("trace has terminals for %d requests, Result has %d rows",
			len(terminals), len(res.PerRequest))
	}
}

// TestTraceConservationAutoscaledFaults checks conservation on the
// cluster tier's hardest path: autoscaling with a restarting and a dead
// crash, so dispositions include served-after-retry, retry-budget
// drops, and plain rejections alongside clean finishes.
func TestTraceConservationAutoscaledFaults(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 29)
	o := obs.NewObserver()
	cl := DPCluster("conserve", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
	cl.Router = NewLiveLeastLoadedRouter()
	cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
	cl.Autoscale = &AutoscaleConfig{
		Scaler:    NewQueueDepthAutoscaler(),
		Interval:  5 * time.Second,
		ColdStart: 5 * time.Second,
		Min:       2,
		Max:       6,
	}
	cl.Faults = &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
		{Replica: 1, At: 15 * time.Second, Restart: 25 * time.Second},
		{Replica: 0, At: 20 * time.Second},
	}}
	cl.Obs = o
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanConservation(t, o, res)
}

// TestTraceConservationGeoOutage checks conservation through the geo
// tier's refugee path: a home-region outage forces cross-region
// re-submission hops, and every displaced request must still end in
// exactly one terminal event.
func TestTraceConservationGeoOutage(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 31)
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	o := obs.NewObserver()
	regions := make([]Region, 2)
	for i := range regions {
		regions[i] = Region{Configs: []Config{
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
		}}
	}
	g := Geo{
		Name:     "conserve-geo",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:  regions,
		Router:   NewSpillOverRouter(),
		Faults: &workload.FaultPlan{Outages: []workload.RegionOutage{
			{Region: "west", Start: 15 * time.Second, End: 25 * time.Second},
		}},
	}
	g.Obs = o
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkSpanConservation(t, o, res)
}

// TestDisabledTraceHookAllocates0 pins the disabled path's contract:
// with no observer attached the engine's stream is nil and every hook —
// a nil-receiver method call — allocates nothing, so untraced runs pay
// one pointer compare per hook site and stay byte-identical to the
// pre-observability simulator.
func TestDisabledTraceHookAllocates0(t *testing.T) {
	e := mustEngine(t, Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 1}})
	if e.stream != nil {
		t.Fatal("fresh engine has a stream attached")
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.stream.Event(time.Second, obs.EvFinish, 1, "detail")
	}); got != 0 {
		t.Fatalf("disabled event hook allocates %v per op, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.stream.Iter(time.Second, 128)
	}); got != 0 {
		t.Fatalf("disabled iteration record allocates %v per op, want 0", got)
	}
	var o *obs.Observer
	var s *obs.Stream
	if got := testing.AllocsPerRun(1000, func() {
		s = o.Stream("", "r0")
	}); got != 0 {
		t.Fatalf("nil observer Stream allocates %v per op, want 0", got)
	}
	if s != nil {
		t.Fatal("nil observer returned a non-nil stream")
	}
}

// BenchmarkSimulator_DisabledTraceHook is the perf-trajectory pin for
// the disabled hook: 0 allocs/op and a handful of nanoseconds.
func BenchmarkSimulator_DisabledTraceHook(b *testing.B) {
	var s *obs.Stream
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Event(time.Duration(i), obs.EvFinish, i, "")
	}
}
