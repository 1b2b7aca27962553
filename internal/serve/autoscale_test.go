package serve

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func gpu1Cfg(cm *perf.CostModel) Config {
	return Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
}

// burstyFleetTrace is a quiet stream with one sharp burst in the middle
// and a quiet tail — the shape autoscaling exists for.
func burstyFleetTrace(seed uint64) *workload.Trace {
	rng := tensor.NewRNG(seed)
	sizes := workload.FixedSize{In: 2048, Out: 128}
	steady := workload.Poisson("steady", rng, 0.4, 120*time.Second, sizes, "interactive")
	burst := workload.Burst("burst", rng, 48, 30*time.Second, 10*time.Second, sizes, "batch")
	return workload.Merge("bursty-fleet", steady, burst)
}

func autoscaledBurstRun(t *testing.T, cold time.Duration, o *obs.Observer) *Result {
	t.Helper()
	cl := SingleEngine("auto", gpu1Cfg(llamaCM(t)))
	cl.Obs = o
	cl.Autoscale = &AutoscaleConfig{
		Scaler:    &QueueDepthAutoscaler{High: 2, Low: 0.5, Step: 2},
		Interval:  5 * time.Second,
		ColdStart: cold,
		Max:       6,
	}
	res, err := cl.Run(burstyFleetTrace(11))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestColdStartNoEarlyService: a replica spawned mid-burst must not be
// routed to — let alone serve a token — before its warmup elapses.
func TestColdStartNoEarlyService(t *testing.T) {
	res := autoscaledBurstRun(t, 10*time.Second, nil)
	if res.ScaleUps == 0 {
		t.Fatal("burst did not trigger a scale-up; cold-start test is vacuous")
	}
	lives := map[string]ReplicaLife{}
	spawned := 0
	for _, l := range res.Replicas {
		lives[l.Name] = l
		if l.SpawnAt > 0 {
			spawned++
			if l.ReadyAt != l.SpawnAt+10*time.Second {
				t.Fatalf("replica %s ready at %v, spawned %v: cold start not charged", l.Name, l.ReadyAt, l.SpawnAt)
			}
		}
	}
	if spawned == 0 {
		t.Fatal("no spawned replica recorded")
	}
	served := 0
	for _, m := range res.PerRequest {
		l, ok := lives[m.Replica]
		if !ok {
			t.Fatalf("request %d served by unknown replica %q", m.ID, m.Replica)
		}
		if m.Arrival < l.ReadyAt {
			t.Fatalf("request %d routed to %s at %v before ready %v", m.ID, m.Replica, m.Arrival, l.ReadyAt)
		}
		if !m.Rejected && l.SpawnAt > 0 {
			served++
			if first := m.Arrival + m.TTFT; first < l.ReadyAt {
				t.Fatalf("replica %s emitted a token at %v before warmup end %v", m.Replica, first, l.ReadyAt)
			}
		}
	}
	if served == 0 {
		t.Fatal("spawned replicas served nothing; warmup assertion is vacuous")
	}
}

// TestReplicaSecondsIntegral: ReplicaSeconds must equal the integral of
// provisioned fleet size over time, reconstructed independently from the
// replica lifetimes, and the per-interval samples must agree with that
// step function.
func TestReplicaSecondsIntegral(t *testing.T) {
	o := obs.NewObserver()
	res := autoscaledBurstRun(t, 5*time.Second, o)
	if res.ScaleUps == 0 || res.ScaleDowns == 0 {
		t.Fatalf("want both scale directions (ups=%d downs=%d) for a meaningful integral", res.ScaleUps, res.ScaleDowns)
	}
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, l := range res.Replicas {
		// Billing ends at the makespan for every replica, so policies
		// that shed idle replicas in the drain tail are never charged
		// more than policies that keep them.
		if l.RetireAt > res.Makespan {
			t.Fatalf("replica %s billed past makespan: retire %v > %v", l.Name, l.RetireAt, res.Makespan)
		}
		edges = append(edges, edge{l.SpawnAt, +1}, edge{l.RetireAt, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	integral, count, last := 0.0, 0, time.Duration(0)
	for _, e := range edges {
		integral += float64(count) * (e.at - last).Seconds()
		count += e.delta
		last = e.at
	}
	if count != 0 {
		t.Fatalf("lifetimes unbalanced: %d replicas never retire", count)
	}
	if diff := math.Abs(integral - res.ReplicaSeconds); diff > 1e-6*math.Max(1, integral) {
		t.Fatalf("ReplicaSeconds %.9f != integral of fleet size %.9f", res.ReplicaSeconds, integral)
	}

	alive := func(at time.Duration, closed bool) int {
		n := 0
		for _, l := range res.Replicas {
			if l.SpawnAt <= at && (at < l.RetireAt || (closed && at <= l.RetireAt)) {
				n++
			}
		}
		return n
	}
	if len(o.Samples()) == 0 {
		t.Fatal("no fleet samples recorded")
	}
	for _, s := range o.Samples() {
		if p := s.Active + s.Warming + s.Draining; p < alive(s.At, false) || p > alive(s.At, true) {
			t.Fatalf("sample at %v reports %d provisioned; lifetimes say [%d, %d]",
				s.At, p, alive(s.At, false), alive(s.At, true))
		}
	}
}

// TestDrainFinishesInFlight: scale-downs must not lose work — every
// request is accounted for exactly once, and a drained replica's
// requests all complete before it retires.
func TestDrainFinishesInFlight(t *testing.T) {
	res := autoscaledBurstRun(t, 5*time.Second, nil)
	tr := burstyFleetTrace(11)
	if len(res.PerRequest) != len(tr.Requests) {
		t.Fatalf("conservation broken: %d metrics for %d requests", len(res.PerRequest), len(tr.Requests))
	}
	seen := map[int]int{}
	for _, m := range res.PerRequest {
		seen[m.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d served %d times", id, n)
		}
	}
	drained := map[string]ReplicaLife{}
	for _, l := range res.Replicas {
		if l.Drained {
			drained[l.Name] = l
		}
	}
	if len(drained) == 0 {
		t.Fatal("no replica drained; in-flight test is vacuous")
	}
	for _, m := range res.PerRequest {
		l, ok := drained[m.Replica]
		if !ok || m.Rejected {
			continue
		}
		if end := m.Arrival + m.Completion; end > l.RetireAt {
			t.Fatalf("replica %s retired at %v with request %d still running until %v", m.Replica, l.RetireAt, m.ID, end)
		}
	}
}

// TestQueueDepthScalesWithBurst: the queue-depth policy must grow the
// fleet during the burst and give it back afterwards.
func TestQueueDepthScalesWithBurst(t *testing.T) {
	res := autoscaledBurstRun(t, 5*time.Second, nil)
	if res.PeakFleet() <= 1 {
		t.Fatalf("peak fleet %d: burst never grew the fleet", res.PeakFleet())
	}
	if res.MeanFleet() >= float64(res.PeakFleet()) {
		t.Fatalf("mean fleet %.2f not below peak %d: fleet never shrank", res.MeanFleet(), res.PeakFleet())
	}
	if res.CostPerMToken(10) <= 0 {
		t.Fatal("cost per token not derived")
	}
}

// TestSLOFeedbackHysteresis unit-tests the feedback policy's state
// machine: grow below target, hold through cooldown, no action inside
// the hysteresis band, shrink only at relax with an empty queue.
func TestSLOFeedbackHysteresis(t *testing.T) {
	a := &SLOFeedbackAutoscaler{Target: 0.9, Relax: 0.99, Cooldown: 2}
	v := func(met, total, queued, cur int) FleetView {
		return FleetView{Active: cur, WindowTTFTMet: met, WindowSLORequests: total, QueuedRequests: queued}
	}
	if got := a.Desired(v(5, 10, 20, 2)); got != 3 {
		t.Fatalf("attainment 0.5 should grow to 3, got %d", got)
	}
	for i := 0; i < 2; i++ {
		if got := a.Desired(v(0, 10, 50, 3)); got != 3 {
			t.Fatalf("cooldown step %d acted: %d", i, got)
		}
	}
	if got := a.Desired(v(95, 100, 5, 3)); got != 3 {
		t.Fatalf("attainment 0.95 in hysteresis band should hold, got %d", got)
	}
	if got := a.Desired(v(100, 100, 5, 3)); got != 3 {
		t.Fatalf("relax attainment with backlog should hold, got %d", got)
	}
	if got := a.Desired(v(100, 100, 0, 3)); got != 2 {
		t.Fatalf("relax attainment with empty queue should shrink to 2, got %d", got)
	}
	a.reset()
	if got := a.Desired(v(0, 0, 0, 2)); got != 1 {
		t.Fatalf("idle window with empty queue should shrink, got %d", got)
	}
}

// TestSLOFeedbackEndToEnd: the feedback policy must react to measured
// SLO misses on a stamped trace.
func TestSLOFeedbackEndToEnd(t *testing.T) {
	tr := burstyFleetTrace(13)
	tr.Stamp("", 0, workload.Deadline(1500*time.Millisecond, workload.NoDeadline))
	cl := SingleEngine("slo-auto", gpu1Cfg(llamaCM(t)))
	cl.Autoscale = &AutoscaleConfig{
		Scaler:    &SLOFeedbackAutoscaler{Target: 0.9, Relax: 0.99, Cooldown: 1},
		Interval:  5 * time.Second,
		ColdStart: 5 * time.Second,
		Max:       6,
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps == 0 {
		t.Fatal("feedback policy never grew despite burst-driven SLO misses")
	}
	if res.PeakFleet() > 6 {
		t.Fatalf("fleet exceeded Max: %d", res.PeakFleet())
	}
}

func TestAutoscaleConfigErrors(t *testing.T) {
	cm := llamaCM(t)
	tr := workload.Single(128, 16)

	lock := DPCluster("lock", gpu1Cfg(cm), 2)
	lock.Lockstep = true
	lock.Autoscale = &AutoscaleConfig{}
	if _, err := lock.Run(tr); err == nil {
		t.Fatal("lockstep + autoscale must error")
	}

	small := SingleEngine("bounds", gpu1Cfg(cm))
	small.Autoscale = &AutoscaleConfig{Min: 2, Max: 4}
	if _, err := small.Run(tr); err == nil {
		t.Fatal("initial fleet below Min must error")
	}

	// The geo tier prefixes a region's autoscale error with its name.
	geo := Geo{
		Topology: UniformTopology(100*time.Millisecond, "east"),
		Regions:  []Region{{Configs: []Config{gpu1Cfg(cm)}, Autoscale: &AutoscaleConfig{Interval: -time.Second}}},
	}
	if _, err := geo.Run(tr); err == nil || !strings.HasPrefix(err.Error(), "serve: region east: serve: AutoscaleConfig.Interval ") {
		t.Fatalf("geo region with a bad Interval: err = %v", err)
	}

	if _, err := NewAutoscaler("nope"); err == nil {
		t.Fatal("unknown autoscaler must error")
	}
	for _, name := range AutoscalerNames {
		a, err := NewAutoscaler(name)
		if err != nil || a.Name() != name {
			t.Fatalf("registry round-trip failed for %q: %v", name, err)
		}
	}
}
