package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// --- breaker state machine ---

// TestBreakerStateMachine walks the closed → open → half-open → closed
// cycle: threshold trips, window-gated half-opening, probe-counted
// closing, and the instant re-trip on a half-open failure.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(BreakerConfig{FailThreshold: 3, OpenFor: 5 * time.Second, HalfOpenProbes: 2})
	if b.state != breakerClosed {
		t.Fatal("breaker must start closed")
	}
	// Two failures stay closed; a served success resets the streak.
	b.failure(0)
	b.failure(0)
	b.success()
	b.failure(time.Second)
	if b.failure(time.Second) {
		t.Fatal("tripped below threshold (success must reset the streak)")
	}
	if !b.failure(2 * time.Second) {
		t.Fatal("third consecutive failure must trip")
	}
	if b.state != breakerOpen || b.opens != 1 {
		t.Fatalf("state=%v opens=%d after trip, want open/1", b.state, b.opens)
	}
	// Open diverts until the window lapses, then half-opens.
	if b.allowOn(4*time.Second, nil, "") {
		t.Fatal("open breaker allowed traffic inside its window")
	}
	if !b.allowOn(8*time.Second, nil, "") {
		t.Fatal("breaker must half-open once the window lapses")
	}
	if b.state != breakerHalfOpen {
		t.Fatalf("state=%v after window lapse, want half-open", b.state)
	}
	// One probe success is not enough; the second closes.
	if b.success() {
		t.Fatal("closed below the probe threshold")
	}
	if !b.success() {
		t.Fatal("enough probe successes must close")
	}
	if b.state != breakerClosed {
		t.Fatalf("state=%v after probes, want closed", b.state)
	}
	// A crash trips instantly regardless of the threshold; a failure
	// while half-open re-trips instantly too.
	if !b.trip(10 * time.Second) {
		t.Fatal("crash trip on a closed breaker must transition")
	}
	b.allowOn(20*time.Second, nil, "") // half-open
	if !b.failure(20 * time.Second) {
		t.Fatal("half-open failure must re-trip instantly")
	}
	if b.opens != 3 {
		t.Fatalf("opens=%d, want 3 lifetime transitions", b.opens)
	}
	// Re-tripping an already-open breaker refreshes the window only.
	if b.trip(21 * time.Second) {
		t.Fatal("tripping an open breaker is not a transition")
	}
	if b.opens != 3 {
		t.Fatalf("opens=%d after refresh, want 3", b.opens)
	}
	// Breakers off: a nil breaker always allows.
	var off *breaker
	if !off.allowOn(0, nil, "") {
		t.Fatal("a nil breaker must allow")
	}
}

// TestBadConfigNamesTheField runs one invalid value of every checked
// field of every config type through Cluster.Run and Geo.Run (a
// Topology only through Geo.Run): each must fail before the run starts,
// with an error naming the field.
func TestBadConfigNamesTheField(t *testing.T) {
	cm := llamaCM(t)
	cases := []struct {
		field    string
		config   func(*Config) // bad replica config; nil keeps dpCfg
		auto     *AutoscaleConfig
		breakers *BreakerConfig
		shared   *SharedCacheConfig
		cloud    *CloudConfig
		geo      func(*Geo) // bad topology or regions: Geo only
	}{
		{field: "Config.MaxSeqs", config: func(c *Config) { c.MaxSeqs = -1 }},
		{field: "Config.Strategy", config: func(c *Config) { c.Strategy = Strategy(7) }},
		{field: "Config.Par", config: func(c *Config) { c.Par.SP = 0 }},
		{field: "Config.EP", config: func(c *Config) { c.EP.Degree = 3 }},
		{field: "Config.Stack", config: func(c *Config) { c.Stack.Spec.Len = -1 }},
		{field: "Config.PrefixCacheHitRate", config: func(c *Config) { c.PrefixCacheHitRate = 1 }},
		{field: "PrefixCacheConfig.ShareFraction", config: func(c *Config) { c.PrefixCache = &PrefixCacheConfig{ShareFraction: 1} }},
		{field: "PrefixCacheConfig.CapacityTokens", config: func(c *Config) { c.PrefixCache = &PrefixCacheConfig{CapacityTokens: -1} }},
		{field: "AdmissionConfig.Policy", config: func(c *Config) { c.Admission = &AdmissionConfig{Policy: "bogus"} }},
		{field: "AutoscaleConfig.Interval", auto: &AutoscaleConfig{Interval: -time.Second}},
		{field: "AutoscaleConfig.ColdStart", auto: &AutoscaleConfig{ColdStart: -time.Second}},
		{field: "AutoscaleConfig.Min", auto: &AutoscaleConfig{Min: -1}},
		{field: "AutoscaleConfig.Max", auto: &AutoscaleConfig{Max: -1}},
		{field: "AutoscaleConfig.Max", auto: &AutoscaleConfig{Min: 3, Max: 2}},
		{field: "AutoscaleConfig.Min/Max", auto: &AutoscaleConfig{Min: 5, Max: 6}},
		{field: "BreakerConfig.FailThreshold", breakers: &BreakerConfig{FailThreshold: -1}},
		{field: "BreakerConfig.HalfOpenProbes", breakers: &BreakerConfig{HalfOpenProbes: -1}},
		{field: "BreakerConfig.OpenFor", breakers: &BreakerConfig{OpenFor: -time.Second}},
		{field: "SharedCacheConfig.Latency", shared: &SharedCacheConfig{Latency: -time.Second}},
		{field: "CloudConfig.BaseLatency", cloud: &CloudConfig{BaseLatency: -time.Second}},
		{field: "CloudConfig.PerToken", cloud: &CloudConfig{PerToken: -time.Millisecond}},
		{field: "CloudConfig.PricePerMToken", cloud: &CloudConfig{PricePerMToken: -1}},
		{field: "CloudConfig.RateLimit", cloud: &CloudConfig{RateLimit: -1}},
		{field: "CloudConfig.MaxSpend", cloud: &CloudConfig{MaxSpend: -1}},
		{field: "CloudConfig.DollarsPerReplicaHour", cloud: &CloudConfig{DollarsPerReplicaHour: -1}},
		{field: "CloudConfig.FailEvery", cloud: &CloudConfig{FailEvery: -1}},
		{field: "Topology.Regions[1]", geo: func(g *Geo) { g.Topology.Regions[1] = "east" }},
		{field: "Topology.RTT[0][1]", geo: func(g *Geo) { g.Topology.RTT[0][1], g.Topology.RTT[1][0] = -1, -1 }},
		{field: "Topology.RTT[0][1]", geo: func(g *Geo) { g.Topology.RTT[0][1] = time.Second }},
		{field: "Topology.RTT[1][1]", geo: func(g *Geo) { g.Topology.RTT[1][1] = time.Second }},
		{field: "Topology.RTT[1]", geo: func(g *Geo) { g.Topology.RTT[1] = g.Topology.RTT[1][:1] }},
		{field: "Geo.Regions", geo: func(g *Geo) { g.Regions = g.Regions[:1] }},
		{field: "Geo.Regions[1].Name", geo: func(g *Geo) { g.Regions[1].Name = "north" }},
		{field: "Configs", geo: func(g *Geo) { g.Regions[1].Configs = nil }},
	}
	tr := geoTestTrace(5, 20, "east", "west")
	for _, c := range cases {
		cfg := dpCfg(cm)
		if c.config != nil {
			c.config(&cfg)
		}
		cl := DPCluster("bad", cfg, 2)
		cl.Autoscale, cl.Breakers, cl.SharedCache, cl.Cloud = c.auto, c.breakers, c.shared, c.cloud
		g := Geo{
			Name: "bad", Topology: UniformTopology(50*time.Millisecond, "east", "west"),
			Regions: []Region{
				{Configs: []Config{cfg, cfg}, Autoscale: c.auto},
				{Configs: []Config{cfg, cfg}, Autoscale: c.auto},
			},
			Breakers: c.breakers, SharedCache: c.shared, Cloud: c.cloud,
		}
		runs := map[string]func(*workload.Trace) (*Result, error){"Cluster": cl.Run}
		if c.geo != nil {
			c.geo(&g)
			delete(runs, "Cluster")
		}
		runs["Geo"] = g.Run
		for deployment, run := range runs {
			_, err := run(tr)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s with bad %s: error %v, want one naming the field", deployment, c.field, err)
			}
		}
	}
}

// --- retrier discipline ---

// TestRetrierBudget pins the token bucket: it starts at burst, every
// retry spends one token, fresh admissions refill at the ratio, and
// the level never exceeds burst.
func TestRetrierBudget(t *testing.T) {
	rt := newRetrier(&workload.RetryPolicy{BudgetRatio: 0.5, BudgetBurst: 2})
	if !rt.take() || !rt.take() {
		t.Fatal("burst tokens must be spendable immediately")
	}
	if rt.take() {
		t.Fatal("empty bucket must refuse")
	}
	rt.noteAdmission() // +0.5: still below one token
	if rt.take() {
		t.Fatal("fractional token must not be spendable")
	}
	rt.noteAdmission() // +0.5: exactly one token
	if !rt.take() {
		t.Fatal("refilled token must be spendable")
	}
	for i := 0; i < 100; i++ {
		rt.noteAdmission()
	}
	if rt.tokens > float64(rt.policy.BudgetBurst) {
		t.Fatalf("bucket level %.1f exceeds burst %d", rt.tokens, rt.policy.BudgetBurst)
	}
	// Without a budget every take succeeds; nil retrier likewise.
	unbudgeted := newRetrier(&workload.RetryPolicy{})
	var nilRt *retrier
	for i := 0; i < 50; i++ {
		if !unbudgeted.take() || !nilRt.take() {
			t.Fatal("unbudgeted/nil retrier must never refuse")
		}
	}
}

// TestRetrierDelay pins exponential growth, the cap clamp, and that
// jitter only ever shrinks a delay (and does so deterministically for
// equal seeds).
func TestRetrierDelay(t *testing.T) {
	rt := newRetrier(&workload.RetryPolicy{BackoffBase: time.Second, BackoffCap: 5 * time.Second})
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if got := rt.delay(i + 1); got != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	var nilRt *retrier
	if nilRt.delay(3) != 0 {
		t.Fatal("nil retrier must impose no delay")
	}
	mk := func() *retrier {
		return newRetrier(&workload.RetryPolicy{
			BackoffBase: time.Second, BackoffCap: 30 * time.Second, Jitter: 0.5, Seed: 42,
		})
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 8; attempt++ {
		da, db := a.delay(attempt), b.delay(attempt)
		if da != db {
			t.Fatalf("equal seeds diverged at attempt %d: %v vs %v", attempt, da, db)
		}
		full := time.Second << (attempt - 1)
		if full > 30*time.Second {
			full = 30 * time.Second
		}
		if da > full || da < full/2 {
			t.Fatalf("jittered delay %v outside [%v, %v]", da, full/2, full)
		}
	}
}

// TestRetrierTakeDue pins the release queue: takeDue returns exactly
// the due set ordered by (release time, park order) and keeps the rest.
func TestRetrierTakeDue(t *testing.T) {
	rt := newRetrier(&workload.RetryPolicy{})
	rq := func(id int) workload.Request { return workload.Request{ID: id} }
	rt.park(rq(1), 3*time.Second)
	rt.park(rq(2), time.Second)
	rt.park(rq(3), 3*time.Second) // same instant as 1: park order breaks the tie
	rt.park(rq(4), 9*time.Second)
	due := rt.takeDue(3 * time.Second)
	ids := make([]int, len(due))
	for i, r := range due {
		ids[i] = r.ID
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("takeDue order = %v, want [2 1 3]", ids)
	}
	if rt.pending() != 1 {
		t.Fatalf("pending = %d after release, want 1", rt.pending())
	}
	if got := rt.takeDue(2 * time.Second); len(got) != 0 {
		t.Fatalf("nothing is due at 2s, got %v", got)
	}
	if due = rt.takeDue(10 * time.Second); len(due) != 1 || due[0].ID != 4 {
		t.Fatalf("final release = %v, want request 4", due)
	}
}

// --- engine admission control ---

// overloadArrivals floods one engine: n requests in a tight ramp, each
// carrying an interactive TTFT deadline it cannot possibly meet from
// the back of the queue.
func overloadArrivals(n int) []workload.Request {
	slo := workload.Deadline(1500*time.Millisecond, 200*time.Millisecond)
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i, Arrival: time.Duration(i) * 10 * time.Millisecond,
			InputTokens: 2000, OutputTokens: 32, Priority: 1, SLO: slo,
		}
	}
	return reqs
}

// TestEngineAdmissionSheds pins the shed pass at the engine level: with
// a bounded batch and a hopeless queue the deadline policy sheds (with
// the RejectShed reason and matching counters), while the same flood
// with admission off queues everything and sheds nothing.
func TestEngineAdmissionSheds(t *testing.T) {
	cm := llamaCM(t)
	mk := func(adm *AdmissionConfig) *Result {
		eng, err := NewEngine(Config{
			CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 4, Admission: adm,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs := overloadArrivals(60)
		metrics := eng.Run(reqs)
		return buildResult("shed-test", metrics, []*Engine{eng})
	}
	res := mk(&AdmissionConfig{Policy: AdmissionDeadline})
	if res.Shed == 0 {
		t.Fatal("deadline policy shed nothing from a hopeless queue")
	}
	if res.Shed != res.Rejected {
		t.Fatalf("Shed %d != Rejected %d (only sheds expected)", res.Shed, res.Rejected)
	}
	if res.ShedTokens == 0 {
		t.Fatal("sheds recorded no token volume")
	}
	shed := 0
	for _, m := range res.PerRequest {
		if m.Rejected {
			if m.RejectReason != RejectShed {
				t.Fatalf("request %d rejected with %q, want %q", m.ID, m.RejectReason, RejectShed)
			}
			shed++
		} else if m.TTFT < 0 {
			t.Fatalf("served request %d has no first token", m.ID)
		}
	}
	if shed != res.Shed {
		t.Fatalf("per-request sheds %d != Result.Shed %d", shed, res.Shed)
	}
	baseline := mk(nil)
	if baseline.Shed != 0 || baseline.Rejected != 0 {
		t.Fatalf("admission off shed %d / rejected %d, want 0/0", baseline.Shed, baseline.Rejected)
	}
	projected := mk(&AdmissionConfig{Policy: AdmissionProjected})
	if projected.Shed == 0 {
		t.Fatal("projected-attainment policy shed nothing from a hopeless queue")
	}
}

// --- determinism and conservation with the whole overload tier on ---

// overloadCluster is the kitchen-sink deployment: bounded batches with
// admission control, a mass crash under a backoff+budget retry
// discipline, and circuit breakers on the router path.
func overloadCluster(cm *perf.CostModel) Cluster {
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
		Admission: &AdmissionConfig{Policy: AdmissionProjected}}
	cl := DPCluster("det-overload", cfg, 4)
	cl.Router = NewLiveLeastLoadedRouter()
	cl.Breakers = &BreakerConfig{FailThreshold: 3, OpenFor: 4 * time.Second}
	cl.Faults = &workload.FaultPlan{
		Crashes: []workload.ReplicaCrash{
			{Replica: 0, At: 16 * time.Second, Restart: 30 * time.Second},
			{Replica: 1, At: 16 * time.Second},
			{Replica: 2, At: 17 * time.Second},
		},
		Retry: &workload.RetryPolicy{
			BackoffBase: time.Second, BackoffCap: 8 * time.Second,
			Jitter: 0.5, Seed: 99, BudgetRatio: 0.2, BudgetBurst: 5,
		},
	}
	return cl
}

// TestOverloadTracedRunRepeats pins determinism with every overload
// mechanism active at once — admission shedding, parked backoff
// retries, the retry budget, and breaker transitions: two fresh traced
// runs must encode to identical Result bytes and identical exported
// trace/series bytes.
func TestOverloadTracedRunRepeats(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 29)
	run := func() string {
		o := obs.NewObserver()
		cl := overloadCluster(cm)
		cl.Obs = o
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if o.Empty() {
			t.Fatal("traced run produced no observability output")
		}
		return encodeResult(t, res) + encodeObs(t, o)
	}
	if run() != run() {
		t.Fatal("two runs of the same traced overload deployment diverged")
	}
}

// TestRetryConservationCluster is the retry-conservation property on
// the cluster path: every request reaches exactly one terminal outcome,
// and the observation stream agrees with the result counters — one
// EvRetry per counted retry, one EvShed per shed, and at least one drop
// once the 20%-of-admissions budget chokes the mass crash's storm.
func TestRetryConservationCluster(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 31)
	o := obs.NewObserver()
	cl := overloadCluster(cm)
	cl.Obs = o
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, tr, res)
	if res.Retries == 0 {
		t.Fatal("mass crash under load produced no retries")
	}
	if res.RetryBackoffWait == 0 {
		t.Fatal("backoff discipline imposed no wait")
	}
	retryEvs, shedEvs, terminal := 0, 0, map[int]int{}
	for _, ev := range o.Events() {
		switch ev.Kind {
		case obs.EvRetry:
			retryEvs++
		case obs.EvShed:
			shedEvs++
		}
		if ev.Kind.Terminal() && ev.Req != obs.NoRequest {
			terminal[ev.Req]++
		}
	}
	if retryEvs != res.Retries {
		t.Fatalf("%d EvRetry events for %d counted retries", retryEvs, res.Retries)
	}
	if shedEvs != res.Shed {
		t.Fatalf("%d EvShed events for %d counted sheds", shedEvs, res.Shed)
	}
	for id, n := range terminal {
		if n != 1 {
			t.Fatalf("request %d has %d terminal events", id, n)
		}
	}
	if len(terminal) != len(tr.Requests) {
		t.Fatalf("%d terminal events for %d requests", len(terminal), len(tr.Requests))
	}
}

// TestRetryConservationGeo is the same property across regions: a full
// home-region outage under backoff+budget, spill-over routing, and
// region breakers still lands every request exactly once.
func TestRetryConservationGeo(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 37)
	for i := range tr.Requests {
		if i%3 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	regions := make([]Region, 2)
	for i := range regions {
		regions[i] = Region{Configs: []Config{
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
		}}
	}
	g := Geo{
		Name:     "overload-geo-cons",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:  regions,
		Router:   NewSpillOverRouter(),
		Breakers: &BreakerConfig{},
		Faults: &workload.FaultPlan{
			Outages: []workload.RegionOutage{
				{Region: "west", Start: 12 * time.Second, End: 25 * time.Second},
			},
			Retry: &workload.RetryPolicy{
				BackoffBase: 500 * time.Millisecond, BackoffCap: 4 * time.Second,
				Jitter: 0.5, Seed: 7, BudgetRatio: 0.5, BudgetBurst: 8,
			},
		},
	}
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, tr, res)
	if res.Retries == 0 {
		t.Fatal("outage dislodged nothing into the retry path")
	}
	if res.RetryBackoffWait == 0 {
		t.Fatal("geo backoff discipline imposed no wait")
	}
}

// TestGeoOverloadBreakerFallback runs region breakers plus the backoff
// retry discipline through a home-region outage: every request ends
// exactly once, and at least one spill-over route found every live
// region's breaker open and placed the request by ignoring breakers.
func TestGeoOverloadBreakerFallback(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 41)
	for i := range tr.Requests {
		if i%2 == 0 {
			tr.Requests[i].Origin = "east"
		} else {
			tr.Requests[i].Origin = "west"
		}
	}
	regions := make([]Region, 2)
	for i := range regions {
		regions[i] = Region{Configs: []Config{
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
			{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}},
		}}
	}
	spy := newSpillSpy()
	g := Geo{
		Name:     "det-geo-overload",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:  regions,
		Router:   spy,
		Breakers: &BreakerConfig{FailThreshold: 2, OpenFor: 3 * time.Second},
		Faults: &workload.FaultPlan{
			Outages: []workload.RegionOutage{
				{Region: "west", Start: 10 * time.Second, End: 20 * time.Second},
			},
			Crashes: []workload.ReplicaCrash{
				{Replica: 0, Region: "east", At: 15 * time.Second, Restart: 24 * time.Second},
			},
			Retry: &workload.RetryPolicy{
				BackoffBase: time.Second, BackoffCap: 8 * time.Second,
				Jitter: 0.3, Seed: 11, BudgetRatio: 0.3,
			},
		},
	}
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if spy.secondPass == 0 {
		t.Fatal("no spill-over route fell back to ignoring open breakers")
	}
	checkConservation(t, tr, res)
}

// spillSpy wraps the spill-over geo router and counts two paths nothing
// in a Result records: routes where every live region's breaker was
// open (Route's breaker-ignoring second pass), and requests RouteCloud
// sent to the cloud — fellThrough of them came back to Route because
// the cloud refused them, the rest the cloud served.
type spillSpy struct {
	spillOverRouter
	cloudBound  int // ID of the request RouteCloud last sent to the cloud; -1 none
	secondPass  int
	toCloud     int
	fellThrough int
}

func newSpillSpy() *spillSpy {
	return &spillSpy{cloudBound: -1}
}

func (s *spillSpy) Route(r workload.Request, origin int, regions []RegionView) int {
	if r.ID == s.cloudBound {
		s.fellThrough++
	}
	s.cloudBound = -1
	if i, _ := s.pick(origin, regions, false); i < 0 {
		if i, _ := s.pick(origin, regions, true); i >= 0 {
			s.secondPass++
		}
	}
	return s.spillOverRouter.Route(r, origin, regions)
}

func (s *spillSpy) RouteCloud(r workload.Request, origin int, regions []RegionView, cloud CloudView) bool {
	s.cloudBound = -1
	ok := s.spillOverRouter.RouteCloud(r, origin, regions, cloud)
	if ok {
		s.cloudBound = r.ID
		s.toCloud++
	}
	return ok
}
