package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

// geoTestTrace spreads a router-style mixed trace across origin regions
// round-robin.
func geoTestTrace(seed uint64, n int, origins ...string) *workload.Trace {
	tr := routerTrace(seed, n)
	for i := range tr.Requests {
		tr.Requests[i].Origin = origins[i%len(origins)]
	}
	return tr
}

// threeRegionTopo is an asymmetric-distance (but symmetric-matrix)
// continental triangle.
func threeRegionTopo() Topology {
	return Topology{
		Regions: []string{"us-east", "eu-west", "ap-south"},
		RTT: [][]time.Duration{
			{0, 80 * time.Millisecond, 250 * time.Millisecond},
			{80 * time.Millisecond, 0, 150 * time.Millisecond},
			{250 * time.Millisecond, 150 * time.Millisecond, 0},
		},
	}
}

// TestGeoSingleRegionBitForBit is the regression guard of the shared
// controller: a one-region Geo under the nearest router must reproduce
// the equivalent Cluster.Run bit-for-bit for every controller feature —
// the static and a scaling policy, faults with a retry policy and a
// health tier, breakers, cloud overflow with shed-or-buy and transient
// cloud failures, and the shared cache. The geo run additionally
// annotates Origin/Region/RTT on each request; those are cleared before
// comparing.
func TestGeoSingleRegionBitForBit(t *testing.T) {
	cm := llamaCM(t)
	crashes := []workload.ReplicaCrash{
		{Replica: 1, At: 15 * time.Second, Restart: 25 * time.Second},
		{Replica: 0, At: 20 * time.Second},
	}
	stamped := routerTrace(7, 300)
	stamped.Stamp("", 1, workload.Deadline(2*time.Second, 100*time.Millisecond))
	scaling := func(policy string) *AutoscaleConfig {
		scaler, err := NewAutoscaler(policy)
		if err != nil {
			t.Fatal(err)
		}
		return &AutoscaleConfig{Scaler: scaler, Interval: 5 * time.Second, ColdStart: 10 * time.Second, Max: 8}
	}
	shedding := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
		Admission: &AdmissionConfig{Policy: AdmissionDeadline}}
	cells := []struct {
		name  string
		trace *workload.Trace
		// build returns a fresh cluster: routers and autoscalers hold
		// per-run state, so the cluster and the geo run each get their own.
		build func() Cluster
		// active reports that the cell's feature really fired.
		active func(*Result, *obs.Observer) bool
	}{
		{"static", stamped, func() Cluster {
			cl := DPCluster("fleet", gpu1Cfg(cm), 3)
			cl.Autoscale = scaling("static")
			return cl
		}, func(_ *Result, o *obs.Observer) bool { return len(o.Samples()) > 0 }},
		{"queue-depth", stamped, func() Cluster {
			cl := DPCluster("fleet", gpu1Cfg(cm), 3)
			cl.Autoscale = scaling("queue-depth")
			return cl
		}, func(r *Result, _ *obs.Observer) bool { return r.ScaleUps > 0 }},
		{"faults-retry-health", determinismTrace(t, 11), func() Cluster {
			cl := DPCluster("fleet", gpu1Cfg(cm), 3)
			cl.Router = NewLiveLeastLoadedRouter()
			cl.Autoscale = scaling("queue-depth")
			cl.Faults = &workload.FaultPlan{Crashes: crashes, Retry: &workload.RetryPolicy{
				BackoffBase: 500 * time.Millisecond, Jitter: 0.5, Seed: 3, BudgetRatio: 0.5,
			}}
			return cl
		}, func(r *Result, _ *obs.Observer) bool {
			return r.Retries > 0 && r.RetryBackoffWait > 0 && r.Ejections > 0
		}},
		{"breakers", determinismTrace(t, 13), func() Cluster {
			cl := DPCluster("fleet", shedding, 2)
			cl.Router = NewLiveLeastLoadedRouter()
			cl.Faults = &workload.FaultPlan{Crashes: crashes}
			cl.Breakers = &BreakerConfig{FailThreshold: 3, OpenFor: 4 * time.Second}
			return cl
		}, func(r *Result, _ *obs.Observer) bool { return r.BreakerOpens > 0 }},
		{"cloud-shed-or-buy-fail-every", determinismTrace(t, 43), func() Cluster {
			cfg := shedding
			cfg.Admission = &AdmissionConfig{Policy: AdmissionShedOrBuy}
			cl := DPCluster("fleet", cfg, 2)
			cl.Router = NewCloudOverflowRouter()
			cl.Autoscale = &AutoscaleConfig{Scaler: NewQueueDepthAutoscaler(), Interval: 5 * time.Second,
				ColdStart: 5 * time.Second, Min: 2, Max: 6}
			cl.Faults = &workload.FaultPlan{Crashes: crashes}
			cloud := cloudCfg()
			cloud.FailEvery = 7
			cloud.MaxSpend = 2
			cl.Cloud = cloud
			return cl
		}, func(r *Result, _ *obs.Observer) bool { return r.CloudRequests >= 7 }}, // FailEvery fired
		{"shared-cache", cachedDeterminismTrace(t, 19), func() Cluster {
			cfg := gpu1Cfg(cm)
			cfg.PrefixCache = &PrefixCacheConfig{ShareFraction: 0.4}
			cl := DPCluster("fleet", cfg, 2)
			cl.Router = NewCacheAwareRouter()
			cl.SharedCache = &SharedCacheConfig{Latency: 20 * time.Millisecond}
			return cl
		}, func(r *Result, _ *obs.Observer) bool { return r.SharedHits > 0 }},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			want, err := cell.build().Run(cell.trace)
			if err != nil {
				t.Fatal(err)
			}
			// A traced twin of the cluster run supplies its fleet samples;
			// the geo run is traced too, so comparing it with the untraced
			// cluster also checks that tracing moves no result.
			traced := cell.build()
			traced.Obs = obs.NewObserver()
			if _, err := traced.Run(cell.trace); err != nil {
				t.Fatal(err)
			}
			if !cell.active(want, traced.Obs) {
				t.Fatal("test premise broken: the cell's feature never fired")
			}
			cl := cell.build()
			g := Geo{
				Name:     cl.Name,
				Topology: SingleRegion(cl.Name),
				Regions:  []Region{{Configs: cl.Configs, Router: cl.Router, Autoscale: cl.Autoscale}},
				Router:   NewNearestRegionRouter(),
				Faults:   cl.Faults, Breakers: cl.Breakers,
				SharedCache: cl.SharedCache, Cloud: cl.Cloud,
				Obs: obs.NewObserver(),
			}
			got, err := g.Run(cell.trace)
			if err != nil {
				t.Fatal(err)
			}

			pr := make([]RequestMetrics, len(got.PerRequest))
			copy(pr, got.PerRequest)
			for i := range pr {
				if pr[i].Origin != cl.Name || pr[i].Region != cl.Name || pr[i].RTT != 0 {
					t.Fatalf("single-region annotation wrong: %+v", pr[i])
				}
			}
			wr := make([]RequestMetrics, len(want.PerRequest))
			copy(wr, want.PerRequest)
			for i := range pr {
				pr[i].Origin, pr[i].Region = "", ""
			}
			for i := range wr {
				wr[i].Origin = ""
			}
			if !reflect.DeepEqual(pr, wr) {
				t.Fatal("per-request metrics diverged from the cluster run")
			}
			if got.Makespan != want.Makespan || got.TotalTokens != want.TotalTokens ||
				got.Rejected != want.Rejected || got.Iters != want.Iters ||
				got.Preemptions != want.Preemptions || got.Cost != want.Cost {
				t.Fatalf("aggregates diverged:\n got %s\nwant %s", summary(got), summary(want))
			}
			if !reflect.DeepEqual(got.TTFT, want.TTFT) || !reflect.DeepEqual(got.Completion, want.Completion) {
				t.Fatal("latency samples diverged")
			}
			if got.ReplicaSeconds != want.ReplicaSeconds ||
				got.ScaleUps != want.ScaleUps || got.ScaleDowns != want.ScaleDowns {
				t.Fatalf("fleet accounting diverged: %v/%d/%d vs %v/%d/%d",
					got.ReplicaSeconds, got.ScaleUps, got.ScaleDowns,
					want.ReplicaSeconds, want.ScaleUps, want.ScaleDowns)
			}
			if !reflect.DeepEqual(got.Replicas, want.Replicas) {
				t.Fatal("replica lifetimes diverged")
			}
			if a, b := fleetComposition(g.Obs), fleetComposition(traced.Obs); !reflect.DeepEqual(a, b) {
				t.Fatalf("fleet samples diverged:\n got %v\nwant %v", a, b)
			}
			if got.ReplicaCrashes != want.ReplicaCrashes || got.Ejections != want.Ejections ||
				got.Readmissions != want.Readmissions || got.WorkLostTokens != want.WorkLostTokens ||
				got.RetryBackoffWait != want.RetryBackoffWait {
				t.Fatal("recovery counters diverged")
			}
			if got.CloudRequests != want.CloudRequests || got.CloudSpend != want.CloudSpend ||
				got.OwnedSpend != want.OwnedSpend || got.SharedHits != want.SharedHits {
				t.Fatal("cloud or shared-cache ledger diverged")
			}
			if len(got.RegionStats) != 1 || got.RegionStats[0].SpillIn != 0 || got.RegionStats[0].SpillOut != 0 {
				t.Fatalf("single region reported spill: %+v", got.RegionStats)
			}
		})
	}
}

// fleetComposition projects an observer's samples onto the fleet
// composition fields every controller tick records, whatever features
// the run has.
func fleetComposition(o *obs.Observer) []obs.Sample {
	var out []obs.Sample
	for _, s := range o.Samples() {
		out = append(out, obs.Sample{
			At: s.At, Track: s.Track, Desired: s.Desired, Active: s.Active,
			Warming: s.Warming, Draining: s.Draining, QueuedRequests: s.QueuedRequests,
		})
	}
	return out
}

// A Cluster has no regions, so a fault plan entry scoped to one is a
// configuration error naming the entry and the field — not a silently
// ignored fault.
func TestClusterRejectsRegionScopedFaults(t *testing.T) {
	cm := llamaCM(t)
	plans := map[string]*workload.FaultPlan{
		`FaultPlan.Crashes[1].Region "us-east"`: {Crashes: []workload.ReplicaCrash{
			{Replica: 0, At: time.Second}, {Replica: 1, Region: "us-east", At: time.Second},
		}},
		`FaultPlan.Outages[0].Region "eu-west"`: {Outages: []workload.RegionOutage{
			{Region: "eu-west", Start: time.Second, End: 2 * time.Second},
		}},
		`FaultPlan.Degrades[0].Region "ap-south"`: {Degrades: []workload.Degrade{
			{Replica: 0, Region: "ap-south", Slowdown: 2, Start: 0, End: time.Second},
		}},
	}
	for field, plan := range plans {
		cl := DPCluster("fleet", gpu1Cfg(cm), 2)
		cl.Faults = plan
		_, err := cl.Run(routerTrace(7, 20))
		if err == nil {
			t.Fatalf("%s: region-scoped fault on a Cluster was accepted", field)
		}
		if !strings.Contains(err.Error(), field) || !strings.Contains(err.Error(), "a Cluster has no regions") {
			t.Fatalf("error %q does not name %s", err, field)
		}
	}
}

// TestGeoConservation is the property test: every request is served
// exactly once — no region double-serves or drops — across all geo
// policies and all topology shapes, with per-region autoscaling on.
func TestGeoConservation(t *testing.T) {
	cm := llamaCM(t)
	topos := []Topology{
		SingleRegion("solo"),
		UniformTopology(100*time.Millisecond, "east", "west"),
		threeRegionTopo(),
	}
	for _, topo := range topos {
		for _, name := range GeoRouterNames {
			router, err := NewGeoRouter(name)
			if err != nil {
				t.Fatal(err)
			}
			regions := make([]Region, len(topo.Regions))
			for i := range regions {
				regions[i] = Region{
					Configs: []Config{gpu1Cfg(cm), gpu1Cfg(cm)},
					Autoscale: &AutoscaleConfig{
						Scaler: NewQueueDepthAutoscaler(), Interval: 5 * time.Second,
						ColdStart: 5 * time.Second, Max: 4,
					},
				}
			}
			tr := geoTestTrace(31, 150, topo.Regions...)
			g := Geo{Name: "geo-" + name, Topology: topo, Regions: regions, Router: router}
			res, err := g.Run(tr)
			if err != nil {
				t.Fatalf("%s/%d regions: %v", name, len(topo.Regions), err)
			}
			if len(res.PerRequest) != len(tr.Requests) {
				t.Fatalf("%s/%d regions: %d metrics for %d requests",
					name, len(topo.Regions), len(res.PerRequest), len(tr.Requests))
			}
			seen := map[int]int{}
			for _, m := range res.PerRequest {
				seen[m.ID]++
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("%s/%d regions: request %d served %d times", name, len(topo.Regions), id, n)
				}
			}
			served, origin, in, out := 0, 0, 0, 0
			for _, rs := range res.RegionStats {
				served += rs.ServedRequests
				origin += rs.OriginRequests
				in += rs.SpillIn
				out += rs.SpillOut
			}
			if served != len(tr.Requests) || origin != len(tr.Requests) || in != out {
				t.Fatalf("%s/%d regions: region counts broken: served %d origin %d in %d out %d",
					name, len(topo.Regions), served, origin, in, out)
			}
		}
	}
}

// allToRegion is a test geo router that forces every request to one
// region, isolating the RTT charge.
type allToRegion int

func (allToRegion) Name() string { return "all-to" }
func (g allToRegion) Route(workload.Request, int, []RegionView) int {
	return int(g)
}

// TestGeoRTTInflation: serving the same requests on an identical remote
// fleet must cost exactly the topology RTT on every request's TTFT and
// completion, and the spill accounting must say so.
func TestGeoRTTInflation(t *testing.T) {
	cm := llamaCM(t)
	const rtt = 300 * time.Millisecond
	topo := UniformTopology(rtt, "east", "west")
	mkGeo := func(target int) Geo {
		return Geo{
			Name:     "rtt",
			Topology: topo,
			Regions: []Region{
				{Configs: []Config{gpu1Cfg(cm), gpu1Cfg(cm)}},
				{Configs: []Config{gpu1Cfg(cm), gpu1Cfg(cm)}},
			},
			Router: allToRegion(target),
		}
	}
	tr := geoTestTrace(17, 120, "east") // all origins east
	local, err := mkGeo(0).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := mkGeo(1).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]RequestMetrics{}
	for _, m := range local.PerRequest {
		byID[m.ID] = m
	}
	for _, m := range remote.PerRequest {
		if m.Region != "west" || m.Origin != "east" || m.RTT != rtt {
			t.Fatalf("remote metric mislabeled: %+v", m)
		}
		base, ok := byID[m.ID]
		if !ok || base.Rejected != m.Rejected {
			t.Fatalf("request %d outcome differs between identical fleets", m.ID)
		}
		if m.Rejected {
			continue
		}
		if m.TTFT != base.TTFT+rtt {
			t.Fatalf("request %d TTFT %v != local %v + RTT", m.ID, m.TTFT, base.TTFT)
		}
		if m.Completion != base.Completion+rtt {
			t.Fatalf("request %d completion %v != local %v + RTT", m.ID, m.Completion, base.Completion)
		}
		if m.TPOT != base.TPOT {
			t.Fatalf("request %d TPOT inflated: %v != %v", m.ID, m.TPOT, base.TPOT)
		}
	}
	n := len(tr.Requests)
	east, west := remote.RegionStats[0], remote.RegionStats[1]
	if east.OriginRequests != n || east.SpillOut != n || east.ServedRequests != 0 {
		t.Fatalf("east stats wrong: %+v", east)
	}
	if west.ServedRequests != n || west.SpillIn != n || remote.Spilled() != n {
		t.Fatalf("west stats wrong: %+v", west)
	}
}

// TestSpillOverBreakEven unit-tests the policy's decision rule around
// the RTT-vs-queue-wait-plus-cold-start break-even. A region's wait is
// its backlog over max(measured rate, the 5000 tok/s prior) per active
// replica.
func TestSpillOverBreakEven(t *testing.T) {
	var r spillOverRouter
	route := func(views []RegionView) int {
		return r.Route(workload.Request{}, 0, views)
	}
	idle := func() []RegionView {
		return []RegionView{
			{Active: 2, NextReadyIn: -1, ColdStart: 60 * time.Second},
			{Active: 2, NextReadyIn: -1, RTT: 200 * time.Millisecond},
		}
	}

	// Both idle: stay local; the RTT buys nothing.
	if got := route(idle()); got != 0 {
		t.Fatalf("idle fleets routed to %d, want local", got)
	}

	// Local queue below the scale-up threshold but non-trivial (6s of
	// work vs a 200ms RTT): remote wins on projected wait alone.
	v := idle()
	v[0].QueuedRequests = 6 // 3 per active replica < spillQueueHigh
	v[0].BacklogTokens = 60000
	if got := route(v); got != 1 {
		t.Fatalf("6s local backlog vs 200ms RTT routed to %d, want remote", got)
	}

	// Tiny local backlog (150ms of work): cheaper than the round trip.
	v = idle()
	v[0].QueuedRequests = 2
	v[0].BacklogTokens = 1500
	if got := route(v); got != 0 {
		t.Fatalf("150ms local backlog routed to %d, want local", got)
	}

	// Queue past the scale-up threshold adds the cold start to the local
	// cost: 4s of queue + 60s cold start loses to RTT + an idle remote.
	v = idle()
	v[0].QueuedRequests = 8 // 4 per active replica = spillQueueHigh
	v[0].BacklogTokens = 40000
	if got := route(v); got != 1 {
		t.Fatalf("cold-start break-even routed to %d, want remote", got)
	}

	// Same, but the remote is drowning too: stay local.
	v[1].BacklogTokens = 1_000_000 // 100s of remote work
	if got := route(v); got != 0 {
		t.Fatalf("drowning remote routed to %d, want local", got)
	}

	// A warming local replica nearly ready caps the cold-start penalty:
	// 8s local (4s queue + 4s warmup) beats 200ms + 10s remote backlog.
	v[1].BacklogTokens = 100_000
	v[0].NextReadyIn = 4 * time.Second
	if got := route(v); got != 0 {
		t.Fatalf("nearly-warm local fleet routed to %d, want local", got)
	}

	// The measured rate overrides the prior: 15000 queued tokens project
	// 1.5s of wait at the 5000 tok/s prior (spill), but only 150ms on a
	// measured 50k tok/s fleet (stay local).
	v = idle()
	v[0].QueuedRequests = 6
	v[0].BacklogTokens = 15000
	if got := route(v); got != 1 {
		t.Fatalf("prior-rate backlog routed to %d, want remote", got)
	}
	v[0].MeasuredRate = 50000
	if got := route(v); got != 0 {
		t.Fatalf("fast measured fleet routed to %d, want local", got)
	}
}

// TestGeoLeastLoadedFollowsLoad: with one region drowning, the global
// balancer must place new work on the quiet region, RTT or not.
func TestGeoLeastLoadedLoadFollows(t *testing.T) {
	r := NewLeastLoadedGlobalRouter()
	views := []RegionView{
		{Active: 2, BacklogTokens: 58000},
		{Active: 2, RTT: 300 * time.Millisecond},
	}
	if got := r.Route(workload.Request{}, 0, views); got != 1 {
		t.Fatalf("least-loaded-global kept a drowning region, got %d", got)
	}
	// Equal load: ties stay with the origin despite an equal-score peer.
	views[0].BacklogTokens = 0
	if got := r.Route(workload.Request{}, 0, views); got != 0 {
		t.Fatalf("tie moved off origin, got %d", got)
	}
}

func TestTopologyValidate(t *testing.T) {
	ms := time.Millisecond
	bad := []Topology{
		{},
		{Regions: []string{"a", "a"}, RTT: [][]time.Duration{{0, 0}, {0, 0}}},
		{Regions: []string{"a", "b"}, RTT: [][]time.Duration{{0, 10 * ms}}},
		{Regions: []string{"a", "b"}, RTT: [][]time.Duration{{0, 10 * ms}, {20 * ms, 0}}},
		{Regions: []string{"a", "b"}, RTT: [][]time.Duration{{5 * ms, 10 * ms}, {10 * ms, 0}}},
		{Regions: []string{"a", "b"}, RTT: [][]time.Duration{{0, -10 * ms}, {-10 * ms, 0}}},
		{Regions: []string{""}, RTT: [][]time.Duration{{0}}},
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Fatalf("bad topology %d validated: %+v", i, topo)
		}
	}
	if err := threeRegionTopo().Validate(); err != nil {
		t.Fatal(err)
	}
	if i := threeRegionTopo().Index("eu-west"); i != 1 {
		t.Fatalf("Index(eu-west) = %d", i)
	}
	if i := threeRegionTopo().Index("nope"); i != -1 {
		t.Fatalf("Index(nope) = %d", i)
	}
}

func TestGeoErrors(t *testing.T) {
	cm := llamaCM(t)
	if _, err := NewGeoRouter("nope"); err == nil {
		t.Fatal("unknown geo router must error")
	}
	for _, name := range GeoRouterNames {
		r, err := NewGeoRouter(name)
		if err != nil || r.Name() != name {
			t.Fatalf("registry round-trip failed for %q: %v", name, err)
		}
	}

	tr := geoTestTrace(5, 20, "east", "west")
	topo := UniformTopology(50*time.Millisecond, "east", "west")
	regions := func() []Region {
		return []Region{
			{Configs: []Config{gpu1Cfg(cm)}},
			{Configs: []Config{gpu1Cfg(cm)}},
		}
	}

	g := Geo{Name: "g", Topology: topo, Regions: regions()[:1]}
	if _, err := g.Run(tr); err == nil {
		t.Fatal("region/topology count mismatch must error")
	}

	g = Geo{Name: "g", Topology: topo, Regions: regions()}
	g.Regions[1].Name = "wrong"
	if _, err := g.Run(tr); err == nil {
		t.Fatal("region name mismatch must error")
	}

	g = Geo{Name: "g", Topology: topo, Regions: regions()}
	g.Regions[0].Configs = nil
	if _, err := g.Run(tr); err == nil {
		t.Fatal("empty region must error")
	}

	g = Geo{Name: "g", Topology: topo, Regions: regions(), Router: allToRegion(7)}
	if _, err := g.Run(tr); err == nil {
		t.Fatal("out-of-range geo route must error")
	}

	g = Geo{Name: "g", Topology: topo, Regions: regions()}
	orphan := geoTestTrace(5, 20, "mars")
	if _, err := g.Run(orphan); err == nil {
		t.Fatal("unknown origin must error")
	}
}

// TestGeoEmptyOriginIsHome: requests without an origin belong to the
// topology's first region.
func TestGeoEmptyOriginIsHome(t *testing.T) {
	cm := llamaCM(t)
	g := Geo{
		Name:     "g",
		Topology: UniformTopology(50*time.Millisecond, "home", "away"),
		Regions:  []Region{{Configs: []Config{gpu1Cfg(cm)}}, {Configs: []Config{gpu1Cfg(cm)}}},
	}
	res, err := g.Run(routerTrace(3, 40)) // no origins set
	if err != nil {
		t.Fatal(err)
	}
	if res.RegionStats[0].OriginRequests != 40 || res.RegionStats[1].OriginRequests != 0 {
		t.Fatalf("empty origins not mapped home: %+v", res.RegionStats)
	}
	for _, m := range res.PerRequest {
		if m.Origin != "home" {
			t.Fatalf("metric origin %q, want home", m.Origin)
		}
	}
}

// TestGeoNearestStaysHome: the nearest policy must never leave the
// origin region when it exists in the topology.
func TestGeoNearestStaysHome(t *testing.T) {
	cm := llamaCM(t)
	topo := threeRegionTopo()
	regions := make([]Region, 3)
	for i := range regions {
		regions[i] = Region{Configs: []Config{gpu1Cfg(cm)}}
	}
	tr := geoTestTrace(19, 90, topo.Regions...)
	g := Geo{Name: "near", Topology: topo, Regions: regions} // nil router = nearest
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spilled() != 0 {
		t.Fatalf("nearest spilled %d requests", res.Spilled())
	}
	for _, m := range res.PerRequest {
		if m.Origin != m.Region || m.RTT != 0 {
			t.Fatalf("nearest served %s-origin request in %s (RTT %v)", m.Origin, m.Region, m.RTT)
		}
	}
	for i, rs := range res.RegionStats {
		if rs.ServedRequests != rs.OriginRequests {
			t.Fatalf("region %d served %d != origin %d", i, rs.ServedRequests, rs.OriginRequests)
		}
	}
}
