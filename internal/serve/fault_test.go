package serve

import (
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/workload"
)

// faultTestPlan is a dense little schedule against a four-replica
// fleet serving the 45s determinism trace: a degraded machine from
// early on, a crash-and-restart landing inside the burst, and a
// permanent loss shortly after — every fault kind, overlapping.
func faultTestPlan() *workload.FaultPlan {
	return &workload.FaultPlan{
		Crashes: []workload.ReplicaCrash{
			{Replica: 1, At: 12 * time.Second, Restart: 25 * time.Second},
			{Replica: 2, At: 20 * time.Second},
		},
		Degrades: []workload.Degrade{
			{Replica: 0, Start: 5 * time.Second, End: 30 * time.Second, Slowdown: 2.5},
		},
	}
}

// faultTestCluster builds the fault-injected fleet; the autoscaler's
// floor of 4 keeps both crash victims alive until their scheduled times.
func faultTestCluster(cm *perf.CostModel) Cluster {
	cl := DPCluster("det-fault", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 4)
	cl.Router = NewLiveLeastLoadedRouter()
	cl.Autoscale = &AutoscaleConfig{
		Scaler:    NewQueueDepthAutoscaler(),
		Interval:  5 * time.Second,
		ColdStart: 5 * time.Second,
		Min:       4,
		Max:       6,
	}
	cl.Faults = faultTestPlan()
	return cl
}

// checkConservation asserts the fault tier's conservation property:
// every trace request reaches exactly one terminal outcome — served,
// rejected with a named reason, or crash-dropped after its retries —
// and none vanish or duplicate, no matter how many replicas they
// crashed through on the way.
func checkConservation(t *testing.T, tr *workload.Trace, res *Result) {
	t.Helper()
	seen := make(map[int]int, len(tr.Requests))
	for _, m := range res.PerRequest {
		seen[m.ID]++
		if m.Rejected && m.RejectReason == "" {
			t.Fatalf("request %d rejected without a named reason", m.ID)
		}
		if m.Retries > workload.DefaultMaxRetries {
			t.Fatalf("request %d retried %d times, budget %d", m.ID, m.Retries, workload.DefaultMaxRetries)
		}
	}
	for _, r := range tr.Requests {
		switch seen[r.ID] {
		case 1:
		case 0:
			t.Fatalf("request %d vanished (no terminal outcome)", r.ID)
		default:
			t.Fatalf("request %d has %d terminal outcomes", r.ID, seen[r.ID])
		}
	}
	if len(res.PerRequest) != len(tr.Requests) {
		t.Fatalf("%d outcomes for %d requests", len(res.PerRequest), len(tr.Requests))
	}
	named := res.RejectedKVExhausted + res.RejectedUnservable + res.RejectedCrashDropped + res.Shed
	if named != res.Rejected {
		t.Fatalf("named rejections %d != rejected %d", named, res.Rejected)
	}
	retried := 0
	for _, m := range res.PerRequest {
		retried += m.Retries
	}
	if retried != res.Retries {
		t.Fatalf("per-request retries sum to %d, Result.Retries = %d", retried, res.Retries)
	}
	// The class split, the whole-run window and (on geo runs) the region
	// split tally the same SLO'd rows.
	merge := func(dst *SLOAttainment, a SLOAttainment) {
		dst.Requests += a.Requests
		dst.Rejected += a.Rejected
		dst.TTFTMet += a.TTFTMet
		dst.TPOTMet += a.TPOTMet
	}
	var byClass, byRegion SLOAttainment
	for _, a := range res.SLOByClass {
		merge(&byClass, *a)
	}
	if all := res.WindowAttainment("", 0, 1<<62); all != byClass {
		t.Fatalf("SLOByClass sums to %+v, whole-run window %+v", byClass, all)
	}
	for _, rs := range res.RegionStats {
		merge(&byRegion, rs.SLO)
	}
	if res.RegionStats != nil && byRegion != byClass {
		t.Fatalf("RegionStats SLO sums to %+v, SLOByClass %+v", byRegion, byClass)
	}
}

// TestFaultConservation runs the fault-injected fleet and checks the
// conservation property plus the recovery counters the plan implies.
func TestFaultConservation(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 17)
	res, err := faultTestCluster(cm).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, tr, res)
	// Two scheduled crashes; the dead replica must also be ejected, the
	// restarted one probed back in after its cooldown.
	if res.ReplicaCrashes < 2 {
		t.Fatalf("ReplicaCrashes = %d, want >= 2", res.ReplicaCrashes)
	}
	if res.Ejections == 0 {
		t.Fatal("no ejections despite a permanently dead replica")
	}
	if res.WorkLostTokens == 0 && res.Retries == 0 {
		t.Fatal("crashes under load lost no work and caused no retries")
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded for crash-dislodged work")
	}
}

// TestDeadFleetDropsEverything pins the stranded path: the only replica
// dies for good under a no-spawn policy, so everything not yet served
// must end crash-dropped — never silently lost, never spinning the
// drain loop.
func TestDeadFleetDropsEverything(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 23)
	cl := DPCluster("dead", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 1)
	cl.Autoscale = &AutoscaleConfig{
		Scaler:   NewStaticAutoscaler(),
		Interval: 5 * time.Second,
		Min:      1,
		Max:      1,
	}
	cl.Faults = &workload.FaultPlan{Crashes: []workload.ReplicaCrash{
		{Replica: 0, At: 10 * time.Second},
	}}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, tr, res)
	if res.RejectedCrashDropped == 0 {
		t.Fatal("dead fleet dropped nothing")
	}
	if res.Ejections != 1 || res.Readmissions != 0 {
		t.Fatalf("ejections/readmissions = %d/%d, want 1/0", res.Ejections, res.Readmissions)
	}
	served := 0
	for _, m := range res.PerRequest {
		if !m.Rejected {
			served++
		}
	}
	if served == 0 {
		t.Fatal("nothing served before the crash")
	}
	if served+res.Rejected != len(tr.Requests) {
		t.Fatalf("served %d + rejected %d != %d requests", served, res.Rejected, len(tr.Requests))
	}
}

// TestGeoOutageConservation checks conservation across regions: work
// dislodged by a full home-region outage either lands remotely (paying
// the RTT) or drops with the named reason, and the readmission path
// brings the region back.
func TestGeoOutageConservation(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 19)
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
		Name:     "outage-cons",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:  regions,
		Router:   NewSpillOverRouter(),
		Faults: &workload.FaultPlan{Outages: []workload.RegionOutage{
			{Region: "west", Start: 12 * time.Second, End: 25 * time.Second},
		}},
	}
	res, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, tr, res)
	if res.ReplicaCrashes != 2 {
		t.Fatalf("ReplicaCrashes = %d, want 2 (both west replicas)", res.ReplicaCrashes)
	}
	if res.Readmissions == 0 {
		t.Fatal("west never readmitted after the outage window")
	}
	spilled := 0
	for _, m := range res.PerRequest {
		if !m.Rejected && m.Origin != m.Region {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no requests served remotely during the outage")
	}
}
