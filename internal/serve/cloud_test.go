package serve

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/workload"
)

func TestCloudConfigValidate(t *testing.T) {
	bad := []CloudConfig{
		{BaseLatency: -time.Second},
		{PerToken: -time.Millisecond},
		{PricePerMToken: -1},
		{RateLimit: -1},
		{MaxSpend: -1},
		{DollarsPerReplicaHour: -1},
		{FailEvery: -1},
	}
	for i := range bad {
		if err := bad[i].validate(); err == nil {
			t.Fatalf("config %d validated despite a negative field", i)
		}
	}
	var nilCfg *CloudConfig
	if err := nilCfg.validate(); err != nil {
		t.Fatalf("nil config must validate: %v", err)
	}
	ok := CloudConfig{BaseLatency: time.Second, PricePerMToken: 10, RateLimit: 500}
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
}

// The token bucket starts full, overdrafts, and refills monotonically:
// a dispatch within burst is immediate, the overdraft delays the next,
// and out-of-order offer times (shed drains) cannot refill twice.
func TestCloudTierRateLimit(t *testing.T) {
	ct := newCloudTier(&CloudConfig{RateLimit: 1000})
	if d := ct.admitDelay(0, 1000); d != 0 {
		t.Fatalf("in-burst dispatch delayed %v", d)
	}
	// Bucket empty: 500 tokens overdraft => 0.5s wait at 1000 tok/s.
	if d := ct.admitDelay(0, 500); d != 500*time.Millisecond {
		t.Fatalf("overdraft wait %v, want 500ms", d)
	}
	// 1s later the bucket recovered 1000 tokens (balance +500, capped by
	// need): a 400-token dispatch is immediate again.
	if d := ct.admitDelay(time.Second, 400); d != 0 {
		t.Fatalf("post-refill dispatch delayed %v", d)
	}
	// An out-of-order earlier timestamp must not re-refill.
	before := ct.tokens
	ct.admitDelay(500*time.Millisecond, 0)
	if ct.tokens != before {
		t.Fatalf("out-of-order offer refilled the bucket: %v -> %v", before, ct.tokens)
	}
}

// Budget refusals are permanent and FailEvery failures transient; both
// emit a throttle event and neither bills.
func TestCloudTierBudgetAndFailEvery(t *testing.T) {
	throttles := func(ct *cloudTier) (n int) {
		for _, ev := range ct.bal.Events() {
			if ev.Kind == obs.EvCloudThrottle {
				n++
			}
		}
		return n
	}
	ct := newCloudTier(&CloudConfig{PricePerMToken: 1e6, MaxSpend: 1.5}) // $1 per token
	ct.observe(obs.NewObserver(), "")
	r := workload.Request{InputTokens: 1, OutputTokens: 0}
	if !ct.offer(r, 0, "overflow") {
		t.Fatal("first offer refused, want accepted")
	}
	if ct.offer(r, 0, "overflow") {
		t.Fatal("over-budget offer accepted, want refused")
	}
	if ct.spend != 1 || ct.requests != 1 || throttles(ct) != 1 || ct.attempts != 1 {
		t.Fatalf("ledger spend=%v requests=%d throttles=%d attempts=%d after refusal",
			ct.spend, ct.requests, throttles(ct), ct.attempts)
	}
	if !ct.view(0).BudgetExhausted {
		// $1 remaining budget but the next $1 dispatch would exceed: view
		// only reports full exhaustion; offer still refuses.
		if ct.offer(r, 0, "overflow") {
			t.Fatal("offer past budget accepted, want refused")
		}
	}

	fe := newCloudTier(&CloudConfig{FailEvery: 2})
	fe.observe(obs.NewObserver(), "")
	if !fe.offer(r, 0, "overflow") {
		t.Fatal("attempt 1 refused, want accepted")
	}
	if fe.offer(r, 0, "overflow") {
		t.Fatal("attempt 2 accepted, want failed")
	}
	// A transient failure counts as an attempt; a budget refusal does not.
	if fe.requests != 1 || throttles(fe) != 1 || fe.attempts != 2 {
		t.Fatalf("ledger requests=%d throttles=%d attempts=%d after transient failure",
			fe.requests, throttles(fe), fe.attempts)
	}
}

// The overflow router's break-even: divert only when the least-loaded
// routable replica's projected wait exceeds the cloud's latency.
func TestCloudOverflowRouterBreakEven(t *testing.T) {
	r := cloudOverflowRouter{}
	cloud := CloudView{BaseLatency: 2 * time.Second}
	busy := ReplicaView{LiveTokens: 3 * priorRate} // 3s projected
	idle := ReplicaView{LiveTokens: priorRate}     // 1s projected

	if !r.RouteCloud(workload.Request{}, []ReplicaView{busy, busy}, cloud) {
		t.Fatal("3s local wait vs 2s cloud: must overflow")
	}
	if r.RouteCloud(workload.Request{}, []ReplicaView{busy, idle}, cloud) {
		t.Fatal("1s local wait vs 2s cloud: must stay local")
	}
	if r.RouteCloud(workload.Request{}, []ReplicaView{busy, busy}, CloudView{BaseLatency: 2 * time.Second, BudgetExhausted: true}) {
		t.Fatal("budget exhausted: must never overflow")
	}
	open := busy
	open.BreakerOpen = true
	if !r.RouteCloud(workload.Request{}, []ReplicaView{open, open}, cloud) {
		t.Fatal("every breaker open: the cloud is the escape hatch")
	}
	// Breaker-open replicas are skipped: the open idle replica must not
	// mask the busy one's wait.
	openIdle := idle
	openIdle.BreakerOpen = true
	if !r.RouteCloud(workload.Request{}, []ReplicaView{busy, openIdle}, cloud) {
		t.Fatal("open idle replica counted as routable")
	}
}

// The spill-over geo router's extended break-even: buy when even the
// best region's projected cost beats the cloud's latency.
func TestSpillOverRouteCloudBreakEven(t *testing.T) {
	s := spillOverRouter{}
	rate := float64(priorRate)
	regions := []RegionView{
		{Active: 1, BacklogTokens: int(3 * rate)},                              // 3s local wait
		{Active: 1, BacklogTokens: int(1 * rate), RTT: 500 * time.Millisecond}, // 1.5s remote
	}
	if !s.RouteCloud(workload.Request{}, 0, regions, CloudView{BaseLatency: time.Second}) {
		t.Fatal("best region 1.5s vs 1s cloud: must buy")
	}
	if s.RouteCloud(workload.Request{}, 0, regions, CloudView{BaseLatency: 2 * time.Second}) {
		t.Fatal("best region 1.5s vs 2s cloud: must spill")
	}
	if s.RouteCloud(workload.Request{}, 0, regions, CloudView{BaseLatency: time.Second, BudgetExhausted: true}) {
		t.Fatal("budget exhausted: must never buy")
	}
	dark := []RegionView{{Down: true}, {Down: true}}
	if !s.RouteCloud(workload.Request{}, 0, dark, CloudView{}) {
		t.Fatal("every region down: the cloud is the escape hatch")
	}
}

func cloudCfg() *CloudConfig {
	return &CloudConfig{
		BaseLatency:           400 * time.Millisecond,
		PerToken:              15 * time.Millisecond,
		PricePerMToken:        20,
		RateLimit:             20000,
		DollarsPerReplicaHour: 3,
	}
}

// Dollar conservation on a Cluster: the ledger splits
// exactly, every cloud-served request appears exactly once with the
// cloud replica name, and the counters match the per-request rows.
func TestCloudDollarConservation(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 29)
	cl := DPCluster("cloud-conserve", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
	cl.Router = NewCloudOverflowRouter()
	cl.Cloud = cloudCfg()
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.CloudRequests == 0 {
		t.Fatal("overload trace on 2 replicas never overflowed to the cloud")
	}
	if res.OwnedSpend+res.CloudSpend != res.TotalSpend {
		t.Fatalf("ledger split %v + %v != %v", res.OwnedSpend, res.CloudSpend, res.TotalSpend)
	}
	if want := cl.Cloud.DollarsPerReplicaHour / 3600 * res.ReplicaSeconds; res.OwnedSpend != want {
		t.Fatalf("owned spend %v != replica-seconds pricing %v", res.OwnedSpend, want)
	}
	seen := map[int]int{}
	cloudRows, cloudTokens, cloudSpend := 0, 0, 0.0
	for _, m := range res.PerRequest {
		seen[m.ID]++
		if m.Replica == CloudReplica {
			cloudRows++
			cloudTokens += m.InputTokens + m.OutputTokens
			cloudSpend += cl.Cloud.PricePerMToken * float64(m.InputTokens+m.OutputTokens) / 1e6
			if m.Rejected {
				t.Fatalf("cloud-served request %d marked rejected", m.ID)
			}
		}
	}
	if len(seen) != len(tr.Requests) {
		t.Fatalf("%d distinct requests in the result, trace has %d", len(seen), len(tr.Requests))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("request %d appears %d times", id, n)
		}
	}
	if cloudRows != res.CloudRequests || cloudTokens != res.CloudTokens {
		t.Fatalf("per-request cloud rows %d/%d tokens vs counters %d/%d",
			cloudRows, cloudTokens, res.CloudRequests, res.CloudTokens)
	}
	if diff := cloudSpend - res.CloudSpend; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-request spend %v vs ledger %v", cloudSpend, res.CloudSpend)
	}
}

// With no cloud tier CostPerMToken must reduce to the legacy
// replica-seconds-only formula bit for bit (regression pin for every
// sweep that charts the cost axis).
func TestCostPerMTokenLegacyPin(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 31)
	cl := DPCluster("cost-pin", Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 2)
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	const dollars = 2.5
	legacy := dollars / 3600 * res.ReplicaSeconds / float64(res.TotalTokens) * 1e6
	if got := res.CostPerMToken(dollars); got != legacy {
		t.Fatalf("nil-cloud CostPerMToken %v != legacy formula %v", got, legacy)
	}
}

// Without a cloud tier shed-or-buy must degrade to deadline-infeasible
// exactly; with one attached the doomed waiters are bought instead.
func TestShedOrBuyDegradesAndBuys(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 37)
	run := func(policy string, cloud *CloudConfig) *Result {
		cfg := Config{
			CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
			Admission: &AdmissionConfig{Policy: policy},
		}
		cl := DPCluster("sob", cfg, 2)
		cl.Router = NewLiveLeastLoadedRouter()
		cl.Cloud = cloud
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deadline := run(AdmissionDeadline, nil)
	degraded := run(AdmissionShedOrBuy, nil)
	if encodeResult(t, deadline) != encodeResult(t, degraded) {
		t.Fatal("cloudless shed-or-buy diverged from deadline-infeasible")
	}
	if deadline.Shed == 0 {
		t.Fatal("test premise broken: the overload trace never shed")
	}
	bought := run(AdmissionShedOrBuy, cloudCfg())
	if bought.CloudRequests == 0 {
		t.Fatal("shed-or-buy with a cloud tier bought nothing")
	}
	if bought.Shed >= deadline.Shed {
		t.Fatalf("shed-or-buy shed %d, deadline-infeasible %d — buying saved nothing",
			bought.Shed, deadline.Shed)
	}
	if bought.OwnedSpend+bought.CloudSpend != bought.TotalSpend {
		t.Fatalf("ledger split %v + %v != %v", bought.OwnedSpend, bought.CloudSpend, bought.TotalSpend)
	}
	// A tight budget turns the buys back into sheds, never losing requests.
	budget := cloudCfg()
	budget.MaxSpend = 0.001
	capped := run(AdmissionShedOrBuy, budget)
	if capped.CloudSpend > budget.MaxSpend {
		t.Fatalf("spend %v exceeded the %v budget", capped.CloudSpend, budget.MaxSpend)
	}
	if capped.Shed <= bought.Shed {
		t.Fatalf("budget-capped run shed %d <= uncapped %d", capped.Shed, bought.Shed)
	}
	if got := len(capped.PerRequest); got != len(tr.Requests) {
		t.Fatalf("budget-capped run lost requests: %d rows, trace has %d", got, len(tr.Requests))
	}
}

// The geo tier with the shared cloud backend: spill-vs-buy routing,
// per-region shed-or-buy staging drained at the geo level, and a
// home-region outage. Every request ends exactly once, the dollar
// ledger and per-region splits conserve, and the geo router's cloud
// overflow placed at least one request (beside the shed-or-buy drains,
// which also count in CloudRequests).
func TestCloudGeoFallThroughAndLedger(t *testing.T) {
	cm := llamaCM(t)
	tr := determinismTrace(t, 47)
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
	cfg := Config{
		CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16,
		Admission: &AdmissionConfig{Policy: AdmissionShedOrBuy},
	}
	regions := make([]Region, 2)
	for i := range regions {
		regions[i] = Region{
			Configs: []Config{cfg, cfg},
			Autoscale: &AutoscaleConfig{
				Scaler:    NewQueueDepthAutoscaler(),
				Interval:  5 * time.Second,
				ColdStart: 5 * time.Second,
				Min:       2,
				Max:       4,
			},
		}
	}
	spy := newSpillSpy()
	g := Geo{
		Name:     "det-cloud-geo",
		Topology: UniformTopology(120*time.Millisecond, "west", "east"),
		Regions:  regions,
		Router:   spy,
		Faults:   plan,
		Cloud:    cloudCfg(),
	}
	last, err := g.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if spy.toCloud-spy.fellThrough == 0 {
		t.Fatal("the cloud accepted no request the geo router sent it")
	}
	checkConservation(t, tr, last)
	if last.CloudRequests == 0 {
		t.Fatal("geo run with an outage never used the cloud")
	}
	if last.OwnedSpend+last.CloudSpend != last.TotalSpend {
		t.Fatalf("geo ledger split %v + %v != %v", last.OwnedSpend, last.CloudSpend, last.TotalSpend)
	}
	var splitReqs int
	var splitSpend float64
	for _, st := range last.RegionStats {
		splitReqs += st.CloudRequests
		splitSpend += st.CloudSpend
	}
	if splitReqs != last.CloudRequests {
		t.Fatalf("regional cloud splits sum to %d requests, total %d", splitReqs, last.CloudRequests)
	}
	if diff := splitSpend - last.CloudSpend; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("regional cloud spend splits sum to %v, ledger %v", splitSpend, last.CloudSpend)
	}
}
