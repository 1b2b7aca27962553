package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenDigest hashes the outcome of a run that must never move: every
// per-request row, the iteration and cost accounting, the makespan, and
// the measured-cache counters.
func goldenDigest(t *testing.T, res *Result) uint64 {
	t.Helper()
	rows, err := json.Marshal(res.PerRequest)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(rows)
	fmt.Fprintf(h, "|iters=%d/%d/%d|cost=%+v|makespan=%d|cache=%d/%d/%d/%d",
		res.Iters, res.BaseIters, res.ShiftIters, res.Cost, res.Makespan,
		res.CacheHits, res.CacheMisses, res.CacheEvictions, res.CacheCachedTokens)
	return h.Sum64()
}

// unservableTrace puts a prompt larger than a 1-GPU replica's whole KV
// cache in the middle of an ordinary stream, so the engine rejects it
// while more arrivals are still on their way.
func unservableTrace() *workload.Trace {
	tr := routerTrace(37, 60)
	tr.Requests[20].InputTokens = 4 << 20
	return tr
}

// TestClusterRunGolden pins featureless and lockstep fleets to golden
// digests, so no change to how Cluster.Run drives its engines can move a
// result unnoticed. Every independent-replica cell also runs under the
// static autoscaler, which must reproduce the digest without ever
// scaling.
func TestClusterRunGolden(t *testing.T) {
	cm := llamaCM(t)
	small := dpCfg(cm)
	big := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 2}}
	cached := small
	cached.PrefixCache = &PrefixCacheConfig{ShareFraction: 0.75}
	lockstep := func(n int) Cluster {
		cl := DPCluster("lock", small, n)
		cl.Lockstep = true
		return cl
	}
	stamped := routerTrace(7, 300)
	stamped.Stamp("", 1, workload.Deadline(2*time.Second, 100*time.Millisecond))
	cases := []struct {
		name string
		cl   Cluster
		tr   *workload.Trace
		want uint64
		// fired, when set, checks the cell exercises what it is there for.
		fired func(res *Result) bool
	}{
		{"shift-bursty", SingleEngine("shift", shiftCfg(cm)), trace.Bursty(3, 2*time.Minute), 0x4f8643d9e57a8f73,
			func(res *Result) bool { return res.BaseIters > 0 && res.ShiftIters > 0 }},
		{"dp8-cache-aware", withRouter(DPCluster("cache", cached, 8), NewCacheAwareRouter()), sessionedTrace(t, 5, 24), 0xaeb2adcf0f134459,
			func(res *Result) bool { return res.CacheHits > 0 }},
		{"dp3-stamped", DPCluster("fleet", small, 3), stamped, 0x1f4c2df4f8196c39, nil},
		{"lockstep4-closed", lockstep(4), workload.Closed("closed", 64, 1024, 64), 0x9d921065102304d9, nil},
		{"lockstep4-open", lockstep(4), routerTrace(43, 200), 0x681ebfc4e0c08002, nil},
		{"hetero-jskv", withRouter(HeteroCluster("hetero", small, small, big), NewJoinShortestKVRouter()), routerTrace(29, 300), 0x38ddc9cfd69b2056, nil},
		{"unservable", DPCluster("unservable", small, 2), unservableTrace(), 0xcaf3736024569a32,
			func(res *Result) bool { return res.RejectedUnservable == 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.cl.Run(c.tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerRequest) != len(c.tr.Requests) {
				t.Fatalf("%d rows for %d requests", len(res.PerRequest), len(c.tr.Requests))
			}
			if c.fired != nil && !c.fired(res) {
				t.Fatal("cell premise broken: its mechanism never fired")
			}
			got := goldenDigest(t, res)
			if got != c.want {
				t.Errorf("digest %#x, golden %#x", got, c.want)
			}
			if c.cl.Lockstep {
				return
			}
			auto := c.cl
			auto.Autoscale = &AutoscaleConfig{Scaler: NewStaticAutoscaler(), Interval: 5 * time.Second, Max: 2 * len(c.cl.Configs)}
			auto.Obs = obs.NewObserver()
			sres, err := auto.Run(c.tr)
			if err != nil {
				t.Fatal(err)
			}
			if d := goldenDigest(t, sres); d != got {
				t.Errorf("static autoscaler digest %#x, fixed fleet %#x", d, got)
			}
			if sres.ScaleUps != 0 || sres.ScaleDowns != 0 {
				t.Errorf("static policy scaled: ups=%d downs=%d", sres.ScaleUps, sres.ScaleDowns)
			}
			if math.Abs(sres.ReplicaSeconds-res.ReplicaSeconds) > 1e-9*res.ReplicaSeconds {
				t.Errorf("replica-seconds %v != fixed-fleet %v", sres.ReplicaSeconds, res.ReplicaSeconds)
			}
			if len(auto.Obs.Samples()) == 0 {
				t.Error("static autoscaler recorded no fleet samples")
			}
			for _, s := range auto.Obs.Samples() {
				if s.Active+s.Warming+s.Draining != len(c.cl.Configs) || s.Desired != len(c.cl.Configs) {
					t.Errorf("static fleet sample moved: %+v", s)
				}
			}
		})
	}
}

func withRouter(cl Cluster, r Router) Cluster {
	cl.Router = r
	return cl
}

// TestSteadyArrivalAllocatesNothing pins the controller's per-arrival
// path on a warmed serial static fleet — advance to the arrival, then
// route it — at zero allocations: every Cluster runs on this path, so a
// per-arrival allocation would show in every fleet's bill. The engine's
// own arrivals list and its slab of request records are the things an
// arrival may grow; the test pre-grows both out of the measurement,
// giving each engine a fresh slab block as enqueue does when one fills.
// Without it, the one allocation per seqBlock arrivals would floor to
// zero in AllocsPerRun's average, and the pin would pass by rounding.
// Stepping the fleet to a later horizon (an advance, then the sync a
// reader makes) resumes the replicas' open run-ahead stretches, and
// that is pinned at zero allocations too, and so is an arrival on a
// two-region geo tier, whose fleets step at every advance.
func TestSteadyArrivalAllocatesNothing(t *testing.T) {
	cl := DPCluster("steady", dpCfg(llamaCM(t)), 4)
	ctl, err := newController(Geo{
		Name: cl.Name, Regions: []Region{{Name: cl.Name, Configs: cl.Configs}},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	arrive := func(r workload.Request) {
		ctl.advance(r.Arrival, -1, false)
		if err := ctl.place(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	tr := routerTrace(47, 101)
	for _, r := range tr.Requests[:100] {
		arrive(r)
	}
	replicas := ctl.regions[0].replicas
	for _, rep := range replicas {
		rep.engine.arrivals = slices.Grow(rep.engine.arrivals, 1000)
		rep.engine.slab = make([]seq, 0, 1000)
		rep.engine.completed = slices.Grow(rep.engine.completed, 1000)
	}
	// Admit the last routed request, then advance in 20 ms horizons:
	// each one cuts or resumes the replicas' stretches.
	h := tr.Requests[99].Arrival + 1
	ctl.advance(h, -1, false)
	ctl.regions[0].sync()
	resumed, iters := 0, 0
	for _, rep := range replicas {
		iters -= rep.engine.iters
	}
	advance := func() {
		h += 20 * time.Millisecond
		for _, rep := range replicas {
			if rep.engine.ahead.left > 0 && rep.engine.now < h {
				resumed++
			}
		}
		ctl.advance(h, -1, false)
		ctl.regions[0].sync()
	}
	if allocs := testing.AllocsPerRun(100, advance); allocs != 0 {
		t.Fatalf("one steady advance allocates %.1f times, want 0", allocs)
	}
	for _, rep := range replicas {
		iters += rep.engine.iters
	}
	if resumed == 0 || iters == 0 {
		t.Fatalf("test premise broken: %d stretches resumed, %d iterations", resumed, iters)
	}
	last := tr.Requests[100]
	if allocs := testing.AllocsPerRun(100, func() { arrive(last) }); allocs != 0 {
		t.Fatalf("one steady-state arrival allocates %.1f times, want 0", allocs)
	}

	// A geo-tier arrival also builds every region's view for the geo
	// router before routing inside the region it picks.
	cfg := dpCfg(llamaCM(t))
	geo, err := newController(Geo{
		Name:     "steady-geo",
		Topology: UniformTopology(50*time.Millisecond, "west", "east"),
		Regions:  []Region{{Configs: []Config{cfg, cfg}}, {Configs: []Config{cfg, cfg}}},
		Router:   NewSpillOverRouter(),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	origins := [...]string{"west", "east"}
	arrived := 0
	geoArrive := func(r workload.Request) {
		r.Origin = origins[arrived%2]
		arrived++
		geo.advance(r.Arrival, -1, false)
		if err := geo.place(r, r.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range tr.Requests[:100] {
		geoArrive(r)
	}
	for _, f := range geo.regions {
		for _, rep := range f.replicas {
			rep.engine.arrivals = slices.Grow(rep.engine.arrivals, 1000)
			rep.engine.slab = make([]seq, 0, 1000)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { geoArrive(last) }); allocs != 0 {
		t.Fatalf("one steady-state geo arrival allocates %.1f times, want 0", allocs)
	}
}

// TestWorkCountsPinned pins the engine's work on three fixed runs as
// exact counts: iters, every iteration run; plans, the ones scheduled
// and applied one by one (the rest ran ahead in steady decode
// stretches); and retirePasses, the passes over the running queue made
// only to retire finished sequences. A change that moves work, or moves
// it between scheduling and running ahead, has to update these numbers
// and say why.
//
// retirePasses read 239, 182 and 164 when apply scanned the running
// queue after every scheduled iteration and settle scanned it again
// after growing the holdings of a stretch that ran out (plans plus the
// stretches that ran out). apply now retires only when a sequence of its
// plan finished, and settle retires in its growth pass, which no pass
// counts.
func TestWorkCountsPinned(t *testing.T) {
	pins := map[string][3]int{
		"bursty-shift":  {3862, 119, 5},
		"prefix-cache":  {2719, 92, 3},
		"slo-admission": {1348, 64, 3},
	}
	for _, tc := range pinnedRuns(t) {
		e := mustEngine(t, tc.cfg)
		e.Run(tc.reqs)
		if got := [3]int{e.iters, e.plans, e.retirePasses}; got != pins[tc.name] {
			want := pins[tc.name]
			t.Errorf("%s: %d iterations, %d scheduled, %d retire passes; pinned %d, %d, %d", tc.name,
				got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
}

// pinnedRun is one of the fixed engine runs the work and allocation
// pins measure.
type pinnedRun struct {
	name string
	cfg  Config
	reqs []workload.Request
}

// pinnedRuns returns the three fixed engine runs: bursty traffic on a
// Shift engine, sessioned traffic on a measured prefix cache, and
// two-class SLO traffic under deadline admission.
func pinnedRuns(t *testing.T) []pinnedRun {
	cm := llamaCM(t)
	prefix := tp8Cfg(cm)
	prefix.PrefixCache = &PrefixCacheConfig{ShareFraction: 0.8}
	withSLO := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 2}}
	withSLO.Admission = &AdmissionConfig{Policy: AdmissionDeadline}
	return []pinnedRun{
		{"bursty-shift", shiftCfg(cm), trace.Bursty(7, 30*time.Second).Requests},
		{"prefix-cache", prefix, sessionedTrace(t, 3, 6).Requests},
		{"slo-admission", withSLO, trace.Bursty(5, 30*time.Second).
			Stamp("interactive", 1, workload.Deadline(2*time.Second, 0)).
			Stamp("batch", 0, workload.Deadline(8*time.Second, 0)).Requests},
	}
}

// fewestAllocs returns the fewest heap allocations made by a run that
// fresh prepares, over a few runs: now and then the runtime allocates on
// its own during one, which an average would count.
func fewestAllocs(fresh func() func()) int {
	fewest := math.MaxInt
	for range 5 {
		// AllocsPerRun makes one unmeasured call first.
		runs, k := [2]func(){fresh(), fresh()}, 0
		fewest = min(fewest, int(testing.AllocsPerRun(1, func() { runs[k](); k++ })))
	}
	return fewest
}

// TestRunAllocationsPinned pins the heap allocations of Engine.Run on
// TestWorkCountsPinned's three runs, and of a Cluster.Run of 1,600
// requests on 4 replicas, as exact counts. Each routed request's record
// comes from its engine's slab, whose first block reserve sizes to the
// engine's expected share, so a run allocates per block, not per
// request: doubling the cluster's trace may add at most one allocation
// per seqBlock added requests. A change that allocates per request, or
// per iteration, moves these numbers and has to say why.
//
// When enqueue copied each request into a growing arrivals list and
// admit copied it again into a seq of its own, the engine runs made 153,
// 124 and 231 allocations and the cluster run 1,851 (3,466 at twice the
// trace).
func TestRunAllocationsPinned(t *testing.T) {
	pins := map[string]int{"bursty-shift": 27, "prefix-cache": 32, "slo-admission": 47}
	for _, tc := range pinnedRuns(t) {
		got := fewestAllocs(func() func() {
			e := mustEngine(t, tc.cfg)
			return func() { e.Run(tc.reqs) }
		})
		if got != pins[tc.name] {
			t.Errorf("%s: Engine.Run allocates %d times; pinned %d", tc.name, got, pins[tc.name])
		}
	}

	cl := DPCluster("pinned", dpCfg(llamaCM(t)), 4)
	clusterAllocs := func(n int) int {
		tr := routerTrace(47, n)
		return fewestAllocs(func() func() {
			return func() {
				if _, err := cl.Run(tr); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	const n, pinned = 1600, 175
	if got := clusterAllocs(n); got != pinned {
		t.Errorf("Cluster.Run of %d requests allocates %d times; pinned %d", n, got, pinned)
	}
	if added, blocks := clusterAllocs(2*n)-pinned, n/seqBlock; added > blocks {
		t.Errorf("doubling the trace to %d requests adds %d allocations, more than its %d blocks", 2*n, added, blocks)
	}
}

// TestReplicaStepsPinned pins the replica steps (stepUntil calls) the
// controller makes, with the iterations run, on independent fleets of 8
// and of 128 single-GPU replicas behind the default router, each fleet
// under 30 s of Poisson chat traffic at 0.5 req/s per replica. The
// router reads assigned work only, so an arrival enqueues without
// stepping anything, and the replicas step at the autoscaler's
// evaluations and in the drain: the count grows with the fleet, not
// with the arrivals. Stepping every replica at every arrival took 968
// and 235,648 calls on the same runs (113 and 1,832 arrivals), for the
// same iterations. A change that moves stepping has to update these
// numbers and say why.
func TestReplicaStepsPinned(t *testing.T) {
	cm := llamaCM(t)
	sizes := workload.LognormalSize{
		MedianIn: 1000, SigmaIn: 0.6, MinIn: 64, MaxIn: 4096,
		MedianOut: 200, SigmaOut: 0.5, MinOut: 16, MaxOut: 800,
	}
	for _, tc := range []struct{ replicas, steps, iters int }{
		{8, 72, 10767},
		{128, 1280, 175114},
	} {
		tr := workload.Poisson("fleet", tensor.NewRNG(42), 0.5*float64(tc.replicas), 30*time.Second, sizes, "chat")
		cl := DPCluster("fleet", dpCfg(cm), tc.replicas)
		ctl, err := newController(Geo{
			Name: cl.Name, Regions: []Region{{Name: cl.Name, Configs: cl.Configs}},
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctl.run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if steps := ctl.regions[0].replicaSteps; steps != tc.steps || res.Iters != tc.iters {
			t.Errorf("%d replicas, %d arrivals: %d replica steps, %d iterations; pinned %d, %d",
				tc.replicas, len(tr.Requests), steps, res.Iters, tc.steps, tc.iters)
		}
	}
}

// TestGeoRunGolden pins a traced two-region overload cell: every row
// kind a run can produce (engine-served, shed, cloud-served,
// shared-cache and crash-dropped) and every breaker transition on both
// the replica and the region tracks. The digest covers the rows and
// the counters (goldenDigest) and the exported trace and series bytes
// (encodeObs), so no change to how outcomes are collected, or to the
// order the breakers see them in, can move a byte unnoticed.
func TestGeoRunGolden(t *testing.T) {
	cm := llamaCM(t)
	tr := cachedDeterminismTrace(t, 41)
	for i := range tr.Requests {
		tr.Requests[i].Origin = [...]string{"east", "west"}[i%2]
	}
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
		Admission: &AdmissionConfig{Policy: AdmissionShedOrBuy}}
	regions := make([]Region, 2)
	for i := range regions {
		regions[i] = Region{Configs: []Config{cfg, cfg}, Router: NewLiveLeastLoadedRouter()}
	}
	cloud := cloudCfg()
	cloud.FailEvery, cloud.MaxSpend = 5, 1
	o := obs.NewObserver()
	g := Geo{
		Name:        "golden-geo",
		Topology:    UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:     regions,
		Router:      NewSpillOverRouter(),
		Breakers:    &BreakerConfig{FailThreshold: 2, OpenFor: 3 * time.Second},
		SharedCache: &SharedCacheConfig{Latency: 20 * time.Millisecond},
		Cloud:       cloud,
		Faults: &workload.FaultPlan{
			Outages: []workload.RegionOutage{
				{Region: "west", Start: 10 * time.Second, End: 20 * time.Second},
			},
			Crashes: []workload.ReplicaCrash{
				{Replica: 0, Region: "east", At: 15 * time.Second, Restart: 24 * time.Second},
			},
			MaxRetries: workload.NoRetries,
		},
		Obs: o,
	}
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, tr, res)

	// Premise: every row kind appears.
	kinds := map[string]int{}
	for _, m := range res.PerRequest {
		switch {
		case m.Replica == CloudReplica:
			kinds["cloud"]++
		case m.Replica == SharedCacheReplica:
			kinds["shared-cache"]++
		case m.RejectReason == RejectCrashDropped:
			kinds["crash-dropped"]++
		case m.RejectReason == RejectShed:
			kinds["shed"]++
		case !m.Rejected:
			kinds["served"]++
		}
	}
	for _, k := range []string{"served", "shed", "cloud", "shared-cache", "crash-dropped"} {
		if kinds[k] == 0 {
			t.Errorf("cell premise broken: no %s row (%v)", k, kinds)
		}
	}
	// Premise: every breaker transition fires on a replica track and on
	// a region balancer track.
	type fired struct {
		region bool
		kind   obs.Kind
		detail string
	}
	seen := map[fired]bool{}
	for _, s := range o.Streams() {
		region := s.Track == "balancer"
		if !region && (s.Region == "geo" || s.Region == "") {
			continue
		}
		for _, ev := range s.Events() {
			switch ev.Kind {
			case obs.EvBreakerOpen, obs.EvBreakerHalfOpen, obs.EvBreakerClose:
				d := ev.Detail
				if region {
					d = ""
				}
				seen[fired{region, ev.Kind, d}] = true
			}
		}
	}
	for _, want := range []fired{
		{false, obs.EvBreakerOpen, "shed"}, {false, obs.EvBreakerOpen, "crash"},
		{false, obs.EvBreakerHalfOpen, ""}, {false, obs.EvBreakerClose, ""},
		{true, obs.EvBreakerOpen, ""}, {true, obs.EvBreakerHalfOpen, ""}, {true, obs.EvBreakerClose, ""},
	} {
		if !seen[want] {
			t.Errorf("cell premise broken: no %+v breaker event", want)
		}
	}

	h := fnv.New64a()
	h.Write([]byte(encodeObs(t, o)))
	const wantRows, wantObs uint64 = 0x5b51183d10ddd83e, 0xea0979164bd5b558
	if got := goldenDigest(t, res); got != wantRows {
		t.Errorf("digest %#x, golden %#x", got, wantRows)
	}
	if got := h.Sum64(); got != wantObs {
		t.Errorf("obs digest %#x, golden %#x", got, wantObs)
	}
}
