package main

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The three simulator workloads. Each one stresses a different layer of
// internal/serve and bypasses the others, so an optimisation of one
// layer shows on one workload and predicts no change on the rest:
//
//   - shift-bursty: one Shift engine and the perf cost model; no routing
//     choice, no cache keys, no controller.
//   - dp-sessions: the router and the per-replica prefix cache on the
//     plain (route-then-replay) path; no controller.
//   - geo-chaos: the controller path (autoscaling, health, breakers,
//     retries, admission, cloud tier); the only workload that runs it.
//
// All three are open loop in simulated time: requests are timed from
// their Arrival.

// Latency limits for slo_attainment and goodput. Interactive requests
// (every class but "batch") must meet both; batch requests only the
// TTFT limit.
var (
	interactiveSLO = workload.Deadline(1500*time.Millisecond, 80*time.Millisecond)
	batchSLO       = workload.Deadline(30*time.Second, workload.NoDeadline)
)

// usdPerGPUHour prices owned replicas for usd_per_mtok.
const usdPerGPUHour = 3.0

// traceDur is the simulated length of every simulator trace.
const traceDur = 10 * time.Minute

// runner is what the benchmark calls on a simulated system: a
// serve.Cluster or a serve.Geo.
type runner interface {
	Run(t *workload.Trace) (*serve.Result, error)
}

// simSpec defines one simulator workload.
type simSpec struct {
	name  string
	trace func(seed uint64) *workload.Trace
	// build assembles the system. A non-nil tracer wraps every router,
	// geo router and autoscaler in a timing wrapper; a non-nil observer
	// is attached as the run's Obs.
	build func(cm *perf.CostModel, t *tracer, o *obs.Observer) runner
	// fired checks that the workload's mechanism did real work over the
	// run's variants. A single variant may leave a mechanism idle (on
	// geo-chaos a few traces in a thousand need no scale-up), so the check
	// pools them.
	fired func(refs []*serve.Result) error
	// capacity marks the workloads whose max_load_x ladder is measured.
	capacity bool
	// variants is how many independently seeded traces a run serves. The
	// modeled metrics pool all of them, which keeps their tails steady
	// from one seed to the next.
	variants int
}

var simSpecs = []*simSpec{
	{
		// The paper's Fig. 7 dynamic mix on one 8xH200 Llama-70B Shift
		// engine: the engine and the perf cost model do almost all the work.
		name: "shift-bursty",
		trace: func(seed uint64) *workload.Trace {
			return trace.Bursty(seed, traceDur)
		},
		build: func(cm *perf.CostModel, _ *tracer, o *obs.Observer) runner {
			cl := serve.SingleEngine("shift", serve.Config{
				CM: cm, Par: perf.Parallelism{SP: 8, TP: 1}, Strategy: serve.StrategyShift,
			})
			cl.Parallelism = 1
			cl.Obs = o
			return cl
		},
		fired: func(refs []*serve.Result) error {
			base := sum(refs, func(res *serve.Result) int { return res.BaseIters })
			shift := sum(refs, func(res *serve.Result) int { return res.ShiftIters })
			if base == 0 || shift == 0 {
				return fmt.Errorf("shift engine ran %d base and %d shift iterations, want both above 0", base, shift)
			}
			return nil
		},
		capacity: true,
		variants: 64,
	},
	{
		// Eight independent 1-GPU replicas behind the cache-aware router,
		// each with a measured prefix cache: routing and caching do real
		// work, on small KV-tight engines.
		name:  "dp-sessions",
		trace: sessionsTrace,
		build: func(cm *perf.CostModel, t *tracer, o *obs.Observer) runner {
			cfg := serve.Config{
				CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
				PrefixCache: &serve.PrefixCacheConfig{ShareFraction: 0.75},
			}
			cl := serve.DPCluster("dp", cfg, 8)
			cl.Lockstep = false
			cl.Router = t.router(serve.NewCacheAwareRouter())
			cl.Parallelism = 1
			cl.Obs = o
			return cl
		},
		fired: func(refs []*serve.Result) error {
			if hits := sum(refs, func(res *serve.Result) int { return res.CacheHits }); hits == 0 {
				return fmt.Errorf("prefix cache hit %d times, want above 0", hits)
			}
			return nil
		},
		capacity: true,
		variants: 16,
	},
	{
		// Three autoscaled regions under a fault plan, admission control,
		// breakers and a capped cloud tier.
		name:  "geo-chaos",
		trace: geoTrace,
		build: buildGeo,
		fired: func(refs []*serve.Result) error {
			for _, c := range []struct {
				name  string
				count func(res *serve.Result) int
			}{
				{"crashes", func(res *serve.Result) int { return res.ReplicaCrashes }},
				{"retries", func(res *serve.Result) int { return res.Retries }},
				{"sheds", func(res *serve.Result) int { return res.Shed }},
				{"breaker opens", func(res *serve.Result) int { return res.BreakerOpens }},
				{"scale-ups", func(res *serve.Result) int { return res.ScaleUps }},
				{"cloud requests", func(res *serve.Result) int { return res.CloudRequests }},
			} {
				if n := sum(refs, c.count); n <= 0 {
					return fmt.Errorf("%s = %d, want above 0", c.name, n)
				}
			}
			return nil
		},
		variants: 64,
	},
}

// sessionsTrace is 48 chat sessions (Poisson 0.25 req/s each, ~2k in /
// 200 out, keyed by Session so the prefix cache can hit) plus
// sessionless batch groups of 4 every 1.2 s (4096 in / 400 out).
func sessionsTrace(seed uint64) *workload.Trace {
	chat := workload.LognormalSize{
		MedianIn: 2000, SigmaIn: 0.6, MinIn: 64, MaxIn: 8192,
		MedianOut: 200, SigmaOut: 0.5, MinOut: 16, MaxOut: 800,
	}
	parts := make([]*workload.Trace, 0, 49)
	for i := 0; i < 48; i++ {
		tr := workload.Poisson("chat", tensor.NewRNG(mix(seed, uint64(i))), 0.25, traceDur, chat, "chat")
		for j := range tr.Requests {
			tr.Requests[j].Session = fmt.Sprintf("s%02d", i)
		}
		parts = append(parts, tr)
	}
	parts = append(parts, workload.BatchedArrivals("batch", tensor.NewRNG(mix(seed, 1000)), 4,
		1200*time.Millisecond, traceDur, workload.FixedSize{In: 4096, Out: 400}, "batch"))
	return workload.Merge("dp-sessions", parts...)
}

var geoRegionNames = []string{"us-east", "eu-west", "ap-south"}

// geoTrace is Poisson 0.8 req/s of interactive traffic per region plus
// three 120-request batch bursts in us-east, with the interactive and
// batch SLOs stamped on the requests (the controller path schedules and
// sheds by them).
func geoTrace(seed uint64) *workload.Trace {
	interactive := workload.LognormalSize{
		MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
		MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16,
	}
	batch := workload.LognormalSize{
		MedianIn: 4000, SigmaIn: 0.5, MaxIn: 16000, MinIn: 512,
		MedianOut: 250, SigmaOut: 0.4, MaxOut: 600, MinOut: 32,
	}
	var parts []*workload.Trace
	for i, region := range geoRegionNames {
		parts = append(parts, workload.Poisson("interactive", tensor.NewRNG(mix(seed, uint64(i))),
			0.8, traceDur, interactive, "interactive").StampOrigin("", region))
	}
	for i, frac := range []float64{0.2, 0.5, 0.8} {
		parts = append(parts, workload.Burst("batch", tensor.NewRNG(mix(seed, 100+uint64(i))), 120,
			time.Duration(frac*float64(traceDur)), 25*time.Second, batch, "batch").StampOrigin("", geoRegionNames[0]))
	}
	tr := workload.Merge("geo-chaos", parts...)
	tr.Stamp("interactive", 1, interactiveSLO)
	tr.Stamp("batch", 0, batchSLO)
	return tr
}

func buildGeo(cm *perf.CostModel, t *tracer, o *obs.Observer) runner {
	cfg := serve.Config{
		CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
		Admission: &serve.AdmissionConfig{Policy: serve.AdmissionDeadline},
	}
	regions := make([]serve.Region, len(geoRegionNames))
	for i := range regions {
		regions[i] = serve.Region{
			Configs: []serve.Config{cfg, cfg},
			Router:  t.router(serve.NewLiveLeastLoadedRouter()),
			Autoscale: &serve.AutoscaleConfig{
				Scaler:    t.scaler(serve.NewSLOFeedbackAutoscaler()),
				Interval:  5 * time.Second,
				ColdStart: 15 * time.Second,
				Min:       2,
				Max:       6,
			},
		}
	}
	return serve.Geo{
		Name:     "geo-chaos",
		Topology: serve.UniformTopology(350*time.Millisecond, geoRegionNames...),
		Regions:  regions,
		Router:   t.geoRouter(serve.NewSpillOverRouter().(serve.CloudAwareGeoRouter)),
		Faults: &workload.FaultPlan{
			Crashes: []workload.ReplicaCrash{{
				Replica: 1, Region: "us-east", At: 3 * time.Minute, Restart: 4 * time.Minute,
			}},
			Outages: []workload.RegionOutage{{Region: "eu-west", Start: 5 * time.Minute, End: 6 * time.Minute}},
			Retry:   &workload.RetryPolicy{BudgetRatio: 0.2},
		},
		Breakers: &serve.BreakerConfig{},
		Cloud: &serve.CloudConfig{
			BaseLatency:           time.Second,
			PerToken:              15 * time.Millisecond,
			PricePerMToken:        5,
			RateLimit:             25000,
			MaxSpend:              3,
			DollarsPerReplicaHour: usdPerGPUHour,
		},
		Parallelism: 1,
		Obs:         o,
	}
}

// costModel is the Llama-70B model on one 8xH200 node, shared by every
// simulator workload.
func costModel() (*perf.CostModel, error) {
	return perf.New(hw.P5enNode(), model.Llama70B(), perf.DefaultParams())
}

// simCase is one variant of a simulator workload: its inputs and the
// system that serves them, built from one seed.
type simCase struct {
	spec *simSpec
	cm   *perf.CostModel
	tr   *workload.Trace
	sys  runner
}

func newSimCase(spec *simSpec, seed uint64) (*simCase, error) {
	cm, err := costModel()
	if err != nil {
		return nil, err
	}
	tr := spec.trace(seed)
	return &simCase{spec: spec, cm: cm, tr: tr, sys: spec.build(cm, nil, nil)}, nil
}

// sum totals one Result counter over several runs.
func sum(results []*serve.Result, count func(*serve.Result) int) int {
	n := 0
	for _, res := range results {
		n += count(res)
	}
	return n
}

// mix derives an independent stream seed from a seed and a stream
// index (a splitmix64 finalizer over their combination).
func mix(seed, stream uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
