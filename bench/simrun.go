package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runSim runs one simulator workload. Every run first builds the
// workload's variants and serves each once untimed: that reference pass
// warms the process up, feeds the modeled metrics, and is what the
// conservation and mechanism gates check and every later unit must
// reproduce exactly.
func runSim(spec *simSpec, o options) (*report, error) {
	r := newReport(o.trace)
	k := o.variants(spec.variants)
	cases := make([]*simCase, k)
	refs := make([]*serve.Result, k)
	digests := make([]uint64, k)
	for v := range cases {
		c, err := newSimCase(spec, variantSeed(o.seed, v))
		if err != nil {
			return nil, err
		}
		res, err := c.sys.Run(c.tr)
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		r.attempted++
		if err := conserve(c.tr, res.PerRequest); err != nil {
			r.failed++
			r.fail("conservation", fmt.Errorf("variant %d: %w", v, err))
		}
		cases[v], refs[v], digests[v] = c, res, digest(res.PerRequest)
	}
	if err := spec.fired(refs); err != nil {
		r.failed++
		r.fail("mechanism", err)
	}
	// check is the determinism gate: unit i must reproduce its variant's
	// reference rows exactly.
	check := func(i int, res *serve.Result, what string) {
		if d := digest(res.PerRequest); d != digests[i%k] {
			r.failed++
			r.fail("determinism", fmt.Errorf("%s unit %d (variant %d) digest %016x, reference %016x", what, i, i%k, d, digests[i%k]))
		}
	}
	if o.trace {
		return r, simLayers(spec, o, r, cases, refs, check)
	}

	var res *serve.Result
	h := &hostClock{}
	st := setups{host: h, build: func() error {
		_, err := newSimCase(spec, variantSeed(o.seed, 0))
		return err
	}}
	samples, err := timeUnits(o.budget(), 2*k, o.maxUnits, h, func(i int) (err error) {
		c := cases[i%k]
		res, err = c.sys.Run(c.tr)
		return err
	}, func(i int) error {
		check(i, res, "timed")
		res = nil
		if i%setupEvery == 0 {
			return st.time()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	setup, err := st.median()
	if err != nil {
		return nil, err
	}
	r.attempted += len(samples)
	reqs := 0
	for i := range samples {
		reqs += len(cases[i%k].tr.Requests)
	}
	r.set("setup_s", setup)
	r.set("wall_ms", refWallMs(samples).Median())
	allocs, kb := perItem(samples, reqs)
	r.set("allocs_per_req", allocs)
	r.set("kb_per_req", kb)
	out := modeled(refs)
	r.set("ttft_p50_ms", out.ttft.Median())
	r.set("tpot_p50_ms", out.tpot.Median())
	r.set("goodput_tok_s", out.goodTokens/out.makespan)
	return r, nil
}

// outcome pools the modeled serving outcome of several runs.
type outcome struct {
	// ttft and tpot hold the latency-critical (non-batch) requests that
	// were served, in milliseconds; batch requests enter through the SLO
	// only.
	ttft, tpot stats.Sample
	submitted  int
	met        int
	failed     int
	goodTokens float64 // input+output tokens of requests that met their SLO
	tokens     float64 // all served tokens
	makespan   float64 // seconds, summed over runs
	dollars    float64 // owned GPU-hours plus cloud spend
}

func modeled(results []*serve.Result) *outcome {
	o := &outcome{}
	for _, res := range results {
		for _, m := range res.PerRequest {
			o.submitted++
			if m.Rejected {
				o.failed++
			} else if m.Class != "batch" {
				o.ttft.AddDuration(m.TTFT)
				if m.TPOT > 0 {
					o.tpot.AddDuration(m.TPOT)
				}
			}
			if met(m) {
				o.met++
				o.goodTokens += float64(m.InputTokens + m.OutputTokens)
			}
		}
		o.tokens += float64(res.TotalTokens)
		o.makespan += res.Makespan.Seconds()
		o.dollars += usdPerGPUHour/3600*res.ReplicaSeconds + res.CloudSpend
	}
	return o
}

// met reports whether a request met both latency limits. Requests that
// carry no SLO (the FIFO workloads, as in the paper) are judged after
// the run against their class's limits; rejected, shed or dropped
// requests miss.
func met(m serve.RequestMetrics) bool {
	if m.SLO == nil {
		m.SLO = interactiveSLO
		if m.Class == "batch" {
			m.SLO = batchSLO
		}
	}
	return m.TTFTMet() && m.TPOTMet()
}

// simLayers is the traced run of a simulator workload. It alternates
// plain units with traced ones (fresh systems whose routers and
// autoscalers are wrapped in timing spans) and, on the plain-path
// workloads, replays each replica's share through serve.NewEngine so the
// engine's own time is measured apart from routing.
func simLayers(spec *simSpec, o options, r *report, cases []*simCase, refs []*serve.Result, check func(int, *serve.Result, string)) error {
	k := len(cases)
	out := modeled(refs)
	// total sums one Result counter over the reference pass; mean is its
	// per-unit average.
	total := func(f func(*serve.Result) float64) float64 {
		sum := 0.0
		for _, res := range refs {
			sum += f(res)
		}
		return sum
	}
	mean := func(f func(*serve.Result) float64) float64 { return total(f) / float64(k) }
	count := func(f func(*serve.Result) int) float64 {
		return mean(func(res *serve.Result) float64 { return float64(f(res)) })
	}
	seconds := func(f func(*serve.Result) time.Duration) float64 {
		return mean(func(res *serve.Result) float64 { return f(res).Seconds() })
	}
	inTokens := 0
	for _, c := range cases {
		for _, q := range c.tr.Requests {
			inTokens += q.InputTokens
		}
	}
	r.set("engine.iters", count(func(res *serve.Result) int { return res.Iters }))
	r.set("engine.shift_iter_frac", count(func(res *serve.Result) int { return res.ShiftIters })/r.values["engine.iters"])
	r.set("engine.preemptions", count(func(res *serve.Result) int { return res.Preemptions }))
	if lookups := count(func(res *serve.Result) int { return res.CacheHits + res.CacheMisses }); lookups > 0 {
		r.set("cache.hit_rate", count(func(res *serve.Result) int { return res.CacheHits })/lookups)
	}
	r.set("cache.cached_token_frac", total(func(res *serve.Result) float64 { return float64(res.CacheCachedTokens) })/float64(inTokens))
	r.set("geo.spilled_frac", total(func(res *serve.Result) float64 { return float64(res.Spilled()) })/float64(out.submitted))
	r.set("model.gemm_s", seconds(func(res *serve.Result) time.Duration { return res.Cost.GEMM }))
	r.set("model.attn_s", seconds(func(res *serve.Result) time.Duration { return res.Cost.Attn }))
	r.set("model.allreduce_s", seconds(func(res *serve.Result) time.Duration { return res.Cost.AllReduce }))
	r.set("model.alltoall_s", seconds(func(res *serve.Result) time.Duration { return res.Cost.AllToAll }))
	r.set("model.overhead_s", seconds(func(res *serve.Result) time.Duration { return res.Cost.Overhead }))
	r.set("retry.backoff_wait_s", seconds(func(res *serve.Result) time.Duration { return res.RetryBackoffWait }))
	r.set("fault.retries", count(func(res *serve.Result) int { return res.Retries }))
	r.set("fault.crashes", count(func(res *serve.Result) int { return res.ReplicaCrashes }))
	r.set("fault.ejections", count(func(res *serve.Result) int { return res.Ejections }))
	r.set("fault.work_lost_tokens", count(func(res *serve.Result) int { return res.WorkLostTokens }))
	r.set("admission.shed", count(func(res *serve.Result) int { return res.Shed }))
	r.set("breaker.opens", count(func(res *serve.Result) int { return res.BreakerOpens }))
	r.set("autoscale.scale_ups", count(func(res *serve.Result) int { return res.ScaleUps }))
	r.set("cloud.requests", count(func(res *serve.Result) int { return res.CloudRequests }))
	r.set("cloud.spend_usd", mean(func(res *serve.Result) float64 { return res.CloudSpend }))
	r.set("ttft_p99_ms", out.ttft.P99())
	r.set("tpot_p99_ms", out.tpot.P99())
	r.set("serve.slo_attainment", float64(out.met)/float64(out.submitted))
	r.set("serve.failed_frac", float64(out.failed)/float64(out.submitted))
	r.set("serve.usd_per_mtok", out.dollars/out.tokens*1e6)
	r.set("perf.iter_ns", iterNs(cases[0].cm))

	if spec.capacity {
		x, err := maxLoad(spec, cases[0])
		if err != nil {
			return err
		}
		r.set("serve.max_load_x", x)
	}
	if err := obsPass(r, cases[0], refs[0]); err != nil {
		return err
	}

	// Alternate plain (even) and traced (odd) units of the same variant so
	// host drift hits both alike. The plain ones give wall_raw_ms,
	// wall_ms_p90 and the tracer's own overhead.
	var plain, runMs, engineMs, nsPerIter, routeCalls, routeMs, geoCalls, geoMs, scaleCalls, scaleMs, otherMs stats.Sample
	var first []span
	var res *serve.Result
	var t *tracer
	var replayed error
	h := &hostClock{}
	samples, err := timeUnits(o.budget(), 2, o.maxUnits, h, func(i int) (err error) {
		c := cases[(i/2)%k]
		if i%2 == 0 {
			res, err = c.sys.Run(c.tr)
			return err
		}
		t = newTracer()
		sys := spec.build(c.cm, t, nil)
		root := t.begin("run", -1)
		res, err = sys.Run(c.tr)
		t.end(root)
		if err != nil {
			return err
		}
		if cl, ok := sys.(serve.Cluster); ok {
			replayed = replay(t, cl, c.tr, res)
		}
		return nil
	}, func(i int) error {
		if i%2 == 0 {
			check(i/2, res, "plain")
			return nil
		}
		check(i/2, res, "traced")
		if replayed != nil {
			r.failed++
			r.fail("replay", replayed)
		}
		if first == nil {
			first = t.spans
		}
		lt := t.layers()
		ms := func(name string) float64 { return float64(lt.self[name]) / float64(time.Millisecond) }
		runMs.AddDuration(t.spans[0].end - t.spans[0].start)
		engineMs.Add(ms("engine"))
		if lt.calls["engine"] > 0 {
			nsPerIter.Add(float64(lt.self["engine"]) / float64(refs[(i/2)%k].Iters))
		}
		routeCalls.Add(float64(lt.calls["route"]))
		routeMs.Add(ms("route"))
		geoCalls.Add(float64(lt.calls["geo.route"]))
		geoMs.Add(ms("geo.route"))
		scaleCalls.Add(float64(lt.calls["autoscale"]))
		scaleMs.Add(ms("autoscale"))
		otherMs.Add(ms("run") - ms("engine"))
		return nil
	})
	if err != nil {
		return err
	}
	r.attempted += len(samples)
	for i, s := range samples {
		if i%2 == 0 {
			plain.AddDuration(s.wall)
		}
	}
	r.set("engine.self_ms", engineMs.Median())
	r.set("engine.ns_per_iter", nsPerIter.Median())
	r.set("route.calls", routeCalls.Median())
	r.set("route.self_ms", routeMs.Median())
	r.set("geo.route_calls", geoCalls.Median())
	r.set("geo.route_self_ms", geoMs.Median())
	r.set("autoscale.calls", scaleCalls.Median())
	r.set("autoscale.self_ms", scaleMs.Median())
	r.set("run.other_ms", otherMs.Median())
	r.set("trace.overhead_x", runMs.Median()/plain.Median())
	r.set("wall_raw_ms", plain.Median())
	r.set("wall_ms_p90", plain.Percentile(90))
	r.set("host.calib_ms", h.times.Median())
	if o.traceOut != "" {
		return writeChromeTrace(o.traceOut, first)
	}
	return nil
}

// replay serves each replica's share of a plain-path cluster run again
// on a fresh serve.NewEngine, inside "engine" spans, and checks that
// every replica reproduces the cluster's rows: engines share nothing
// after routing, so the replay times exactly the engine work the
// cluster run did.
func replay(t *tracer, cl serve.Cluster, tr *workload.Trace, res *serve.Result) error {
	replicaOf := make(map[int]string, len(res.PerRequest))
	rows := map[string][]serve.RequestMetrics{}
	for _, m := range res.PerRequest {
		replicaOf[m.ID] = m.Replica
		rows[m.Replica] = append(rows[m.Replica], m)
	}
	// The router hands requests out in trace order, so each share is the
	// trace filtered to its replica.
	shares := map[string][]workload.Request{}
	for _, q := range tr.Requests {
		shares[replicaOf[q.ID]] = append(shares[replicaOf[q.ID]], q)
	}
	for _, cfg := range cl.Configs {
		e, err := serve.NewEngine(cfg)
		if err != nil {
			return err
		}
		i := t.begin("engine", -1)
		got := e.Run(shares[cfg.Name])
		t.end(i)
		if digest(got) != digest(rows[cfg.Name]) {
			return fmt.Errorf("engine replay of %s differs from the cluster run", cfg.Name)
		}
	}
	return nil
}

// obsPass runs the first variant with an obs.Observer attached against
// the plain system, alternating, and checks that observing changes no
// outcome.
func obsPass(r *report, c *simCase, ref *serve.Result) error {
	var plain, observed stats.Sample
	events := 0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := c.sys.Run(c.tr); err != nil {
			return err
		}
		plain.AddDuration(time.Since(t0))
		o := obs.NewObserver()
		sys := c.spec.build(c.cm, nil, o)
		t0 = time.Now()
		res, err := sys.Run(c.tr)
		if err != nil {
			return err
		}
		observed.AddDuration(time.Since(t0))
		if digest(res.PerRequest) != digest(ref.PerRequest) {
			r.fail("determinism", fmt.Errorf("run with obs attached differs from the plain run"))
		}
		events = 0
		for _, s := range o.Streams() {
			events += len(s.Events())
		}
	}
	r.set("obs.events", float64(events))
	r.set("obs.overhead_x", observed.Median()/plain.Median())
	return nil
}

// loadLadder is the arrival-compression ladder of max_load_x.
var loadLadder = func() []float64 {
	var l []float64
	for k := 100; k <= 200; k += 5 {
		l = append(l, float64(k)/100)
	}
	return append(l, 2.5, 3, 4)
}()

// maxLoad returns the largest load factor k of the ladder at which k and
// every smaller rung keep slo_attainment at or above 0.95 (arrivals
// compressed by k), and 0 if k = 1 already misses.
func maxLoad(spec *simSpec, c *simCase) (float64, error) {
	best := 0.0
	for _, k := range loadLadder {
		tr := &workload.Trace{Name: c.tr.Name, Requests: append([]workload.Request(nil), c.tr.Requests...)}
		for i := range tr.Requests {
			tr.Requests[i].Arrival = time.Duration(float64(tr.Requests[i].Arrival) / k)
		}
		res, err := spec.build(c.cm, nil, nil).Run(tr)
		if err != nil {
			return 0, err
		}
		if out := modeled([]*serve.Result{res}); float64(out.met) < 0.95*float64(out.submitted) {
			break
		}
		best = k
	}
	return best, nil
}

// iterSink keeps the cost-model microbenchmark's results alive.
var iterSink atomic.Int64

// iterNs times perf.CostModel.Iter, the call every engine iteration
// prices itself with, on a decode-only batch and a mixed prefill batch
// at the base (SP) and shift (TP) configs of an 8-GPU node.
func iterNs(cm *perf.CostModel) float64 {
	batches := []perf.Batch{
		{DecodeSeqs: 64, DecodeCtx: 1500},
		{PrefillTokens: 4096, PrefillCtx: 2048, DecodeSeqs: 32, DecodeCtx: 1500},
	}
	pars := []perf.Parallelism{{SP: 8, TP: 1}, {SP: 1, TP: 8}}
	const n = 50000
	var s stats.Sample
	var sum time.Duration
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sum += cm.Iter(pars[i%2], batches[(i/2)%2]).Total()
		}
		s.Add(float64(time.Since(t0)) / n)
	}
	iterSink.Store(int64(sum))
	return s.Median()
}
