package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// routerTrace is a mixed-size Poisson trace with per-request session
// classes, exercising uneven load.
func routerTrace(seed uint64, n int) *workload.Trace {
	rng := tensor.NewRNG(seed)
	reqs := make([]workload.Request, n)
	at := time.Duration(0)
	for i := range reqs {
		at += time.Duration(rng.Float64() * float64(200*time.Millisecond))
		session := fmt.Sprintf("session-%d", int(rng.Float64()*8))
		reqs[i] = workload.Request{
			ID: i, Arrival: at,
			InputTokens:  256 + int(rng.Float64()*4096),
			OutputTokens: 16 + int(rng.Float64()*256),
			Class:        session, Session: session,
		}
	}
	return &workload.Trace{Name: "router-mix", Requests: reqs}
}

func dpCfg(cm *perf.CostModel) Config {
	return Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
}

// routeWith serves the trace on n clones of cfg under the router and
// returns each replica's share in trace order.
func routeWith(t *testing.T, r Router, cfg Config, n int, tr *workload.Trace) [][]workload.Request {
	t.Helper()
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Name = fmt.Sprintf("r%d", i)
	}
	return shares(t, Cluster{Name: "route", Configs: cfgs, Router: r}, tr)
}

// shares runs the cluster and groups the trace by the replica each
// request's row names, in trace order.
func shares(t *testing.T, cl Cluster, tr *workload.Trace) [][]workload.Request {
	t.Helper()
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, cfg := range cl.Configs {
		index[cfg.Name] = i
	}
	replicaOf := map[int]int{}
	for _, m := range res.PerRequest {
		if _, dup := replicaOf[m.ID]; dup {
			t.Fatalf("request %d has two rows", m.ID)
		}
		replicaOf[m.ID] = index[m.Replica]
	}
	assigned := make([][]workload.Request, len(cl.Configs))
	for _, r := range tr.Requests {
		i, ok := replicaOf[r.ID]
		if !ok {
			t.Fatalf("request %d has no row", r.ID)
		}
		assigned[i] = append(assigned[i], r)
	}
	return assigned
}

// Every router must assign every request exactly once (conservation).
func TestRoutingConservation(t *testing.T) {
	cm := llamaCM(t)
	tr := routerTrace(7, 300)
	for _, name := range RouterNames {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		assigned := routeWith(t, r, dpCfg(cm), 4, tr)
		seen := map[int]int{}
		for _, share := range assigned {
			for _, req := range share {
				seen[req.ID]++
			}
		}
		if len(seen) != len(tr.Requests) {
			t.Fatalf("%s: %d distinct requests routed, want %d", name, len(seen), len(tr.Requests))
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("%s: request %d assigned %d times", name, id, n)
			}
		}
	}
}

// A 1-replica cluster must be byte-identical to SingleEngine under any
// router — there is only one place to route to.
func TestOneReplicaMatchesSingleEngineAnyRouter(t *testing.T) {
	cm := llamaCM(t)
	tr := routerTrace(11, 120)
	base, err := SingleEngine("one", tp8Cfg(cm)).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range RouterNames {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		cl := SingleEngine("one", tp8Cfg(cm))
		cl.Router = r
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.PerRequest, base.PerRequest) {
			t.Fatalf("%s: 1-replica cluster diverged from SingleEngine", name)
		}
	}
}

// Round-robin must spread a uniform trace within ±1 request per replica.
func TestRoundRobinSpreadsUniformly(t *testing.T) {
	cm := llamaCM(t)
	for _, n := range []int{2, 3, 4, 7} {
		assigned := routeWith(t, NewRoundRobinRouter(), dpCfg(cm), n, routerTrace(13, 101))
		lo, hi := len(assigned[0]), len(assigned[0])
		for _, share := range assigned {
			if len(share) < lo {
				lo = len(share)
			}
			if len(share) > hi {
				hi = len(share)
			}
		}
		if hi-lo > 1 {
			t.Fatalf("%d replicas: share sizes range [%d, %d]", n, lo, hi)
		}
	}
}

// Affinity routing must keep all requests of one session on one replica.
func TestAffinityKeepsSessionsTogether(t *testing.T) {
	cm := llamaCM(t)
	assigned := routeWith(t, NewAffinityRouter(), dpCfg(cm), 4, routerTrace(17, 200))
	home := map[string]int{}
	for i, share := range assigned {
		for _, req := range share {
			if prev, ok := home[req.Session]; ok && prev != i {
				t.Fatalf("session %s split across replicas %d and %d", req.Session, prev, i)
			}
			home[req.Session] = i
		}
	}
	if len(home) < 2 {
		t.Fatalf("trace exercised only %d sessions", len(home))
	}
}

// Affinity routing for sessionless requests falls back to load
// balancing instead of hashing everything onto one replica.
func TestAffinityEmptyClassFallsBack(t *testing.T) {
	cm := llamaCM(t)
	tr := routerTrace(19, 100)
	for i := range tr.Requests {
		tr.Requests[i].Session = ""
	}
	assigned := routeWith(t, NewAffinityRouter(), dpCfg(cm), 4, tr)
	for i, share := range assigned {
		if len(share) == 0 {
			t.Fatalf("replica %d received nothing under fallback balancing", i)
		}
	}
}

// The default (nil) router must reproduce the pre-Router Cluster.Run
// assignment exactly: least outstanding tokens, lowest index on ties.
func TestLeastOutstandingMatchesLegacyAssignment(t *testing.T) {
	cm := llamaCM(t)
	tr := routerTrace(23, 400)
	n := 4
	assigned := routeWith(t, nil, dpCfg(cm), n, tr)

	// The legacy routing loop, verbatim.
	legacy := make([][]workload.Request, n)
	outstanding := make([]int, n)
	for _, r := range tr.Requests {
		best := 0
		for i := 1; i < n; i++ {
			if outstanding[i] < outstanding[best] {
				best = i
			}
		}
		legacy[best] = append(legacy[best], r)
		outstanding[best] += r.TotalTokens()
	}
	if !reflect.DeepEqual(assigned, legacy) {
		t.Fatal("least-outstanding router diverged from the legacy assignment")
	}
}

// Join-shortest-KV equals least-outstanding on homogeneous fleets but
// weights placement by KV capacity on heterogeneous ones.
func TestJoinShortestKVHeterogeneous(t *testing.T) {
	cm := llamaCM(t)
	tr := routerTrace(29, 300)

	homoJSKV := routeWith(t, NewJoinShortestKVRouter(), dpCfg(cm), 3, tr)
	homoLOT := routeWith(t, NewLeastOutstandingRouter(), dpCfg(cm), 3, tr)
	if !reflect.DeepEqual(homoJSKV, homoLOT) {
		t.Fatal("join-shortest-kv diverged from least-outstanding on a homogeneous fleet")
	}

	// Heterogeneous: one 2-GPU replica has far more KV than two 1-GPU
	// ones; JSKV should hand it the largest share.
	small := dpCfg(cm)
	big := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 2}}
	cl := HeteroCluster("hetero", small, small, big)
	cl.Router = NewJoinShortestKVRouter()
	if bigKV, smallKV := mustEngine(t, big).KVCapacityTokens(), mustEngine(t, small).KVCapacityTokens(); bigKV <= smallKV {
		t.Fatalf("test premise broken: big replica KV %d <= small %d", bigKV, smallKV)
	}
	assigned := shares(t, cl, tr)
	tokens := func(share []workload.Request) int {
		n := 0
		for _, r := range share {
			n += r.TotalTokens()
		}
		return n
	}
	if tokens(assigned[2]) <= tokens(assigned[0]) {
		t.Fatalf("big replica got %d tokens, small got %d — capacity ignored",
			tokens(assigned[2]), tokens(assigned[0]))
	}
}

// An unknown policy name and an out-of-range router index are errors.
func TestRouterErrors(t *testing.T) {
	if _, err := NewRouter("nope"); err == nil {
		t.Fatal("expected unknown-router error")
	}
	cm := llamaCM(t)
	cl := SingleEngine("bad", tp8Cfg(cm))
	cl.Router = badRouter{}
	if _, err := cl.Run(routerTrace(31, 10)); err == nil {
		t.Fatal("expected out-of-range routing error")
	}
}

type badRouter struct{}

func (badRouter) Name() string                              { return "bad" }
func (badRouter) Route(workload.Request, []ReplicaView) int { return 99 }

// Rendezvous-hashed affinity must keep session→replica mappings stable
// across fleet-size changes: removing a replica remaps only the sessions
// that lived on it, and adding one moves sessions only onto the
// newcomer — the stickiness hash-mod-fleet-size could not provide.
func TestAffinityRendezvousSurvivesScaleEvents(t *testing.T) {
	views := func(names ...string) []ReplicaView {
		vs := make([]ReplicaView, len(names))
		for i, n := range names {
			vs[i] = ReplicaView{Name: n}
		}
		return vs
	}
	router := NewAffinityRouter()
	place := func(session string, vs []ReplicaView) string {
		return vs[router.Route(workload.Request{Session: session}, vs)].Name
	}
	const sessions = 200
	full := views("fleet-replica0", "fleet-replica1", "fleet-replica2", "fleet-replica3", "fleet-replica4")

	before := map[string]string{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("session-%d", i)
		before[s] = place(s, full)
	}
	spread := map[string]bool{}
	for _, home := range before {
		spread[home] = true
	}
	if len(spread) < 3 {
		t.Fatalf("sessions hashed onto only %d of 5 replicas", len(spread))
	}

	// Scale down: drop the last replica. Sessions that lived elsewhere
	// must not move; sessions on the removed replica must land somewhere.
	shrunk := full[:4]
	removed := "fleet-replica4"
	moved := 0
	for s, home := range before {
		got := place(s, shrunk)
		if home != removed {
			if got != home {
				t.Fatalf("session %s moved %s → %s when unrelated replica %s was removed", s, home, got, removed)
			}
			continue
		}
		moved++
		if got == removed {
			t.Fatalf("session %s still mapped to the removed replica", s)
		}
	}
	if moved == 0 {
		t.Fatal("no session lived on the removed replica; shrink assertion is vacuous")
	}

	// Scale up: a new replica may only attract sessions, never shuffle
	// them between incumbents.
	grown := append(views("fleet-replica0", "fleet-replica1", "fleet-replica2", "fleet-replica3", "fleet-replica4"), ReplicaView{Name: "fleet-replica5"})
	gained := 0
	for s, home := range before {
		got := place(s, grown)
		if got == "fleet-replica5" {
			gained++
		} else if got != home {
			t.Fatalf("session %s moved %s → %s when a replica was added", s, home, got)
		}
	}
	if gained == 0 {
		t.Fatal("new replica attracted no sessions; grow assertion is vacuous")
	}
}

// Repeated Run calls on one cluster must assign identically even for
// stateful routers: round-robin's cursor resets per run.
func TestRoundRobinRepeatedRunsIdentical(t *testing.T) {
	cm := llamaCM(t)
	cl := DPCluster("rr", dpCfg(cm), 3)
	cl.Router = NewRoundRobinRouter()
	a, err := cl.Run(routerTrace(41, 100)) // 100 % 3 != 0: cursor would drift
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Run(routerTrace(41, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PerRequest, b.PerRequest) {
		t.Fatal("round-robin assignment drifted between identical runs")
	}
}

// The three built-in registries keep their names in presentation order,
// name the kind and every known policy on a miss, and resolve
// "cloud-overflow" outside RouterNames.
func TestBuiltinRegistries(t *testing.T) {
	wantNames := [][]string{
		{"round-robin", "least-outstanding", "live-least-loaded", "join-shortest-kv", "affinity", "cache-aware"},
		{"static", "queue-depth", "slo-feedback"},
		{"nearest", "least-loaded-global", "spill-over"},
	}
	for i, names := range [][]string{RouterNames, AutoscalerNames, GeoRouterNames} {
		if !reflect.DeepEqual(names, wantNames[i]) {
			t.Errorf("names %v, want %v", names, wantNames[i])
		}
	}
	_, rerr := NewRouter("nope")
	_, aerr := NewAutoscaler("nope")
	_, gerr := NewGeoRouter("nope")
	for _, c := range []struct {
		err  error
		want string
	}{
		{rerr, `serve: unknown router "nope" (have [round-robin least-outstanding live-least-loaded join-shortest-kv affinity cache-aware])`},
		{aerr, `serve: unknown autoscaler "nope" (have [static queue-depth slo-feedback])`},
		{gerr, `serve: unknown geo router "nope" (have [nearest least-loaded-global spill-over])`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("err = %v, want %s", c.err, c.want)
		}
	}
	if r, err := NewRouter("cloud-overflow"); err != nil || r.Name() != "cloud-overflow" {
		t.Errorf("cloud-overflow: %v, %v", r, err)
	}
}

// opaqueRouter hides a router's type from serve, as a user's router
// would be hidden: a fleet routed by it steps every replica at every
// arrival, so the router gets live views.
type opaqueRouter struct{ Router }

// opaqueCloudRouter is opaqueRouter for a cloud-aware router.
type opaqueCloudRouter struct{ CloudAwareRouter }

// TestAssignedRoutersNeedNoLiveViews guards the routers marked
// assignedRouter, whose fleets step replicas only when a reader syncs:
// every built-in router must serve a run exactly as it does behind a
// wrapper serve does not know, which always gets live views. It covers
// an 8-replica fleet with measured prefix caches, the same fleet with
// breakers (whose views read live breaker state at every arrival), an
// autoscaled fleet under faults and cloud-overflow on a busy
// two-replica cloud fleet.
func TestAssignedRoutersNeedNoLiveViews(t *testing.T) {
	cfg := Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 1},
		PrefixCache: &PrefixCacheConfig{ShareFraction: 0.75}}
	newRouter := func(name string) Router {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// run serves a fleet of cfg replicas and returns its replica steps.
	run := func(r Router, breakers *BreakerConfig, cloud *CloudConfig) (*Result, int) {
		t.Helper()
		tr, n := sessionedTrace(t, 5, 16), 8
		if cloud != nil {
			// A busy pair, so overflow pays.
			tr, n = determinismTrace(t, 29), 2
		}
		cl := DPCluster("opaque", cfg, n)
		ctl, err := newController(Geo{
			Name:     cl.Name,
			Regions:  []Region{{Name: cl.Name, Configs: cl.Configs, Router: r}},
			Breakers: breakers, Cloud: cloud,
		}, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctl.run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res, ctl.regions[0].replicaSteps
	}
	same := func(what string, got, want *Result) {
		t.Helper()
		if !reflect.DeepEqual(got.PerRequest, want.PerRequest) || got.Iters != want.Iters || got.Cost != want.Cost {
			t.Errorf("%s: the built-in serves differently from the same router behind a wrapper", what)
		}
	}
	breakers := &BreakerConfig{FailThreshold: 2, OpenFor: 3 * time.Second}
	// An autoscaled fleet under crashes, a restart and a degrade window,
	// with backed-off retries: evaluations, drains, probes, crashes and
	// retry releases all read replicas this fleet has left behind.
	faulted := faultTestCluster(cfg.CM)
	faulted.Faults.Retry = &workload.RetryPolicy{BackoffBase: 300 * time.Millisecond}
	faulted.Autoscale.Scaler = &QueueDepthAutoscaler{High: 1, Low: 0.5, Step: 1}
	faultedRun := func(r Router) *Result {
		t.Helper()
		faulted.Router = r
		res, err := faulted.Run(determinismTrace(t, 13))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range RouterNames {
		got, steps := run(newRouter(name), nil, nil)
		want, wrappedSteps := run(opaqueRouter{newRouter(name)}, nil, nil)
		same(name, got, want)
		_, assigned := newRouter(name).(assignedRouter)
		if assigned != (steps < wrappedSteps) {
			t.Errorf("%s: %d replica steps, %d behind a wrapper: assigned-only is %v",
				name, steps, wrappedSteps, assigned)
		}
		got, _ = run(newRouter(name), breakers, nil)
		want, _ = run(opaqueRouter{newRouter(name)}, breakers, nil)
		same(name+" with breakers", got, want)

		got = faultedRun(newRouter(name))
		same(name+" under faults", got, faultedRun(opaqueRouter{newRouter(name)}))
		if got.ReplicaCrashes == 0 || got.Retries == 0 || got.ScaleUps == 0 || got.ScaleDowns == 0 {
			t.Errorf("%s: test premise broken: %d crashes, %d retries, %d scale-ups, %d scale-downs",
				name, got.ReplicaCrashes, got.Retries, got.ScaleUps, got.ScaleDowns)
		}
	}
	got, _ := run(NewCloudOverflowRouter(), nil, cloudCfg())
	want, _ := run(opaqueCloudRouter{NewCloudOverflowRouter().(CloudAwareRouter)}, nil, cloudCfg())
	same("cloud-overflow on a cloud fleet", got, want)
	if got.CloudRequests == 0 {
		t.Error("test premise broken: cloud-overflow sent nothing to the cloud")
	}
}

// TestLaggingFleetEndsTraceLikeEager: a waiter an empty replica can
// never admit (a prompt within 1% of its whole KV cache, with a chunk
// budget that takes it in one chunk) blocks every request queued behind
// it until the end of the trace, when the engine rejects it. A fleet
// that steps only at its readers must reach that point where an eager
// fleet does, at the last arrival, and not at the replica's own last
// arrival: the two-replica round-robin fleet below serves exactly as
// the same router behind a wrapper, whose fleet steps at every arrival.
func TestLaggingFleetEndsTraceLikeEager(t *testing.T) {
	cfg := dpCfg(llamaCM(t))
	capTok := mustEngine(t, cfg).KVCapacityTokens()
	cfg.ChunkBudget = capTok
	reqs := make([]workload.Request, 20)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Arrival: time.Duration(i) * 300 * time.Millisecond,
			InputTokens: 300, OutputTokens: 20}
	}
	reqs[4].InputTokens = capTok - 40
	tr := &workload.Trace{Name: "stuck-waiter", Requests: reqs}
	cl := DPCluster("stuck", cfg, 2)
	cl.Router = NewRoundRobinRouter()
	got, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	cl.Router = opaqueRouter{NewRoundRobinRouter()}
	want, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rejected != 1 {
		t.Fatalf("test premise broken: %d rejections, want the stuck waiter's alone", got.Rejected)
	}
	if !reflect.DeepEqual(got.PerRequest, want.PerRequest) {
		t.Fatal("the lagging fleet ended the trace differently from the eager one")
	}
}
