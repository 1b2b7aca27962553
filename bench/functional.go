package main

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

const fnName = "functional-shift"

// functional-shift runs the real Shift engine: tensor kernels and
// goroutine collectives (internal/tensor, internal/comm,
// internal/parallel). It is the only workload that does; the simulator
// workloads skip all three.
//
// One unit serves fnSeqs sequences: one prefill step of fnPrompt tokens
// each (fnSeqs*fnPrompt batched tokens, above the threshold, so the base
// SP config runs it), then fnDecode decode steps of one token per
// sequence (fnSeqs tokens, at most the threshold, so the shift TP config
// runs them).
const (
	fnSeqs      = 8
	fnPrompt    = 32
	fnDecode    = 32
	fnThreshold = 32
	fnTol       = 1e-9
)

var fnLayout = parallel.Layout{
	Cfg: transformer.Config{Layers: 4, Hidden: 64, QHeads: 8, KVHeads: 2, FFN: 256},
	SP:  4, TP: 2,
}

// fnCase is one variant of functional-shift: weights and prompts built
// from one seed, and a fresh Shift engine (fresh KV caches) per unit.
type fnCase struct {
	w       *transformer.Weights
	prompts []*tensor.Matrix
	shift   *core.Shift
}

func newFnCase(seed uint64) (*fnCase, error) {
	w := transformer.NewWeights(fnLayout.Cfg, seed)
	rng := tensor.NewRNG(mix(seed, 1))
	prompts := make([]*tensor.Matrix, fnSeqs)
	for i := range prompts {
		prompts[i] = rng.RandMatrix(fnPrompt, fnLayout.Cfg.Hidden, 1)
	}
	c := &fnCase{w: w, prompts: prompts}
	return c, c.reset()
}

// reset gives the case a fresh engine with empty KV caches.
func (c *fnCase) reset() error {
	s, err := core.New(c.w, fnLayout, core.Options{Threshold: fnThreshold})
	if err != nil {
		return err
	}
	c.shift = s
	return nil
}

// fnRun is one unit's outputs: the embeddings of every step, and the
// wall time of the prefill step and of each decode step.
type fnRun struct {
	outs    []*tensor.Matrix
	prefill time.Duration
	decode  []time.Duration
}

// forward is the step function a unit drives: the Shift engine's
// Algorithm 2 dispatch, or the single-device reference.
type forward func(batch []transformer.Chunk) *tensor.Matrix

// serveSeqs drives one unit through f and times each step.
func (c *fnCase) serveSeqs(f forward) fnRun {
	batch := make([]transformer.Chunk, fnSeqs)
	for i := range batch {
		batch[i] = transformer.Chunk{Seq: i, X: c.prompts[i]}
	}
	run := fnRun{outs: make([]*tensor.Matrix, 0, fnDecode+1), decode: make([]time.Duration, 0, fnDecode)}
	t0 := time.Now()
	out := f(batch)
	run.prefill = time.Since(t0)
	run.outs = append(run.outs, out)
	rows := fnPrompt // output rows per sequence in out
	for step := 0; step < fnDecode; step++ {
		for i := range batch {
			// The next input token is the sequence's last output row,
			// normalized, as a stand-in for sampling and embedding.
			x := tensor.SliceRows(out, (i+1)*rows-1, (i+1)*rows)
			tensor.RMSNormRows(x, 1e-6)
			batch[i] = transformer.Chunk{Seq: i, X: x}
		}
		rows = 1
		t := time.Now()
		out = f(batch)
		run.decode = append(run.decode, time.Since(t))
		run.outs = append(run.outs, out)
	}
	return run
}

// matchRef checks a unit's outputs against the reference outputs.
func matchRef(got fnRun, ref []*tensor.Matrix) error {
	for i := range ref {
		if d := tensor.MaxAbsDiff(got.outs[i], ref[i]); !(d <= fnTol) {
			return fmt.Errorf("step %d differs from transformer.Reference by %g (tolerance %g)", i, d, fnTol)
		}
	}
	return nil
}

// dispatched checks that Algorithm 2 sent the unit's prefill to the base
// config and every decode step to the shift config.
func dispatched(s *core.Shift) error {
	if base, shift := s.Iterations(); base != 1 || shift != fnDecode {
		return fmt.Errorf("shift engine ran %d base and %d shift iterations, want 1 and %d", base, shift, fnDecode)
	}
	return nil
}

// runFn runs functional-shift. The reference outputs come from
// transformer.Reference, the single-device oracle; every unit, warm-up
// included, must match them within fnTol.
func runFn(o options) (*report, error) {
	r := newReport(o.trace)
	c, err := newFnCase(variantSeed(o.seed, 0))
	if err != nil {
		return nil, err
	}
	ref := c.serveSeqs(transformer.NewReference(c.w).Forward).outs
	// verify checks the unit just served and gives the next unit a fresh
	// engine.
	verify := func(i int, run fnRun) error {
		r.attempted++
		err := matchRef(run, ref)
		if err == nil {
			err = dispatched(c.shift)
		}
		if err != nil {
			r.failed++
			r.fail("reference", fmt.Errorf("unit %d: %w", i, err))
		}
		return c.reset()
	}
	for i := 0; i < 3; i++ {
		if err := verify(-1-i, c.serveSeqs(c.shift.Forward)); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return r, fnLayers(o, r, c, ref, verify)
	}

	var run fnRun
	var runs []fnRun
	h := &hostClock{}
	st := setups{host: h, build: func() error {
		_, err := newFnCase(variantSeed(o.seed, 0))
		return err
	}}
	samples, err := timeUnits(o.budget(), 2, o.maxUnits, h, func(int) error {
		run = c.serveSeqs(c.shift.Forward)
		return nil
	}, func(i int) error {
		runs = append(runs, fnRun{prefill: run.prefill, decode: run.decode})
		if err := verify(i, run); err != nil {
			return err
		}
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
	ttft, tpot := fnUnitLatency(runs, samples)
	wall := refWallMs(samples).Median()
	r.set("setup_s", setup)
	r.set("wall_ms", wall)
	allocs, kb := perItem(samples, fnSeqs*len(samples))
	r.set("allocs_per_req", allocs)
	r.set("kb_per_req", kb)
	r.set("ttft_p50_ms", ttft.Median())
	r.set("tpot_p50_ms", tpot.Median())
	r.set("goodput_tok_s", fnSeqs*(fnPrompt+fnDecode)/(wall/1000))
	return r, nil
}

// fnUnitLatency gives one value per unit, in milliseconds at the
// reference host speed: the median TTFT of its sequences (all get their
// first token when the prefill step ends) and their median TPOT (the
// median decode step). samples[i] is runs[i]'s timed unit.
func fnUnitLatency(runs []fnRun, samples []sample) (ttft, tpot *stats.Sample) {
	ttft, tpot = &stats.Sample{}, &stats.Sample{}
	for i, run := range runs {
		calib := samples[i].calib
		ttft.Add(atRef(run.prefill, calib))
		var steps stats.Sample
		for _, d := range run.decode {
			steps.Add(atRef(d, calib))
		}
		tpot.Add(steps.Median())
	}
	return ttft, tpot
}

// fnLatency collects the units' per-sequence latencies in milliseconds:
// every sequence of a unit gets its first token when the prefill step
// ends, and every decode step is one inter-token gap of every sequence.
func fnLatency(runs []fnRun) (ttft, tpot *stats.Sample) {
	ttft, tpot = &stats.Sample{}, &stats.Sample{}
	for _, run := range runs {
		for i := 0; i < fnSeqs; i++ {
			ttft.AddDuration(run.prefill)
		}
		for _, d := range run.decode {
			tpot.AddDuration(d)
		}
	}
	return ttft, tpot
}

// fnLayers is the traced run of functional-shift: plain units alternate
// with units whose steps run inside "fwd.base" and "fwd.shift" spans.
// The collective counts come from one more unit served by two
// parallel.Engines over shared caches (the pair core.Shift wraps), and
// the per-call costs from microbenchmarks at the unit's payloads and
// shapes.
func fnLayers(o options, r *report, c *fnCase, ref []*tensor.Matrix, verify func(int, fnRun) error) error {
	var plain, unitMs, base, shift, other stats.Sample
	var first []span
	var t *tracer
	var run fnRun
	var runs []fnRun
	h := &hostClock{}
	samples, err := timeUnits(o.budget(), 2, o.maxUnits, h, func(i int) error {
		if i%2 == 0 {
			run = c.serveSeqs(c.shift.Forward)
			return nil
		}
		t = newTracer()
		root := t.begin("unit", -1)
		run = c.serveSeqs(func(batch []transformer.Chunk) *tensor.Matrix {
			name := "fwd.shift"
			if c.shift.ChooseMode(transformer.BatchTokens(batch)) == parallel.ModeSP {
				name = "fwd.base"
			}
			j := t.begin(name, -1)
			defer t.end(j)
			return c.shift.Forward(batch)
		})
		t.end(root)
		return nil
	}, func(i int) error {
		runs = append(runs, fnRun{prefill: run.prefill, decode: run.decode})
		if i%2 == 1 {
			if first == nil {
				first = t.spans
			}
			lt := t.layers()
			unitMs.AddDuration(t.spans[0].end - t.spans[0].start)
			base.AddDuration(lt.self["fwd.base"] / time.Duration(lt.calls["fwd.base"]))
			shift.AddDuration(lt.self["fwd.shift"] / time.Duration(lt.calls["fwd.shift"]))
			other.AddDuration(lt.self["unit"])
		}
		return verify(i, run)
	})
	if err != nil {
		return err
	}
	for i, s := range samples {
		if i%2 == 0 {
			plain.AddDuration(s.wall)
		}
	}
	ttft, tpot := fnLatency(runs)
	r.set("ttft_p99_ms", ttft.P99())
	r.set("tpot_p99_ms", tpot.P99())
	r.set("fwd.base_ms", base.Median())
	r.set("fwd.shift_ms", shift.Median())
	r.set("run.other_ms", other.Median())
	r.set("trace.overhead_x", unitMs.Median()/plain.Median())
	r.set("wall_raw_ms", plain.Median())
	r.set("wall_ms_p90", plain.Percentile(90))
	r.set("host.calib_ms", h.times.Median())

	counters, pair, err := commCounters(c)
	if err != nil {
		return err
	}
	r.attempted++
	if err := matchRef(pair, ref); err != nil {
		r.failed++
		r.fail("reference", fmt.Errorf("parallel.Engine pair: %w", err))
	}
	r.set("comm.allreduce_calls", float64(counters.AllReduceCalls))
	r.set("comm.allreduce_mb", counters.AllReduceBytes/1e6)
	r.set("comm.alltoall_calls", float64(counters.AllToAllCalls))
	r.set("comm.alltoall_mb", counters.AllToAllBytes/1e6)
	// Payloads: a decode step's TP all-reduce carries one hidden vector per
	// sequence over the whole world; the prefill's SP all-to-all sends each
	// peer of the SP group the average chunk the counters saw.
	chunk := int(counters.AllToAllBytes / float64(counters.AllToAllCalls) / 8 / float64(fnLayout.SP-1))
	r.set("comm.allreduce_us", microUs(func(n int) {
		comm.Run(fnLayout.World(), func(g *comm.Group, rank int) int {
			vec := make([]float64, fnSeqs*fnLayout.Cfg.Hidden)
			for i := 0; i < n; i++ {
				g.AllReduce(rank, vec)
			}
			return 0
		})
	}))
	r.set("comm.alltoall_us", microUs(func(n int) {
		comm.Run(fnLayout.SP, func(g *comm.Group, rank int) int {
			send := make([][]float64, fnLayout.SP)
			for j := range send {
				send[j] = make([]float64, chunk)
			}
			for i := 0; i < n; i++ {
				g.AllToAll(rank, send)
			}
			return 0
		})
	}))
	// The prefill's per-rank MLP up-projection: this rank's rows of the
	// sequence slice times its TP shard of W_up.
	a := tensor.New(fnSeqs*fnPrompt/fnLayout.SP, fnLayout.Cfg.Hidden)
	b := tensor.New(fnLayout.Cfg.Hidden, fnLayout.Cfg.FFN/fnLayout.TP)
	r.set("tensor.matmul_us", microUs(func(n int) {
		for i := 0; i < n; i++ {
			tensor.MatMul(a, b)
		}
	}))
	if o.traceOut != "" {
		return writeChromeTrace(o.traceOut, first)
	}
	return nil
}

// commCounters serves one unit on a base (SP) and a shift (TP)
// parallel.Engine over one set of caches, dispatching each step with the
// Shift engine's Algorithm 2 predicate, and returns the two engines'
// summed collective counters and the unit's outputs.
func commCounters(c *fnCase) (comm.Counters, fnRun, error) {
	caches := parallel.NewCaches(fnLayout)
	base, err := parallel.NewEngine(c.w, fnLayout, parallel.ModeSP, caches)
	if err != nil {
		return comm.Counters{}, fnRun{}, err
	}
	shift, err := parallel.NewEngine(c.w, fnLayout, parallel.ModeTP, caches)
	if err != nil {
		return comm.Counters{}, fnRun{}, err
	}
	run := c.serveSeqs(func(batch []transformer.Chunk) *tensor.Matrix {
		if c.shift.ChooseMode(transformer.BatchTokens(batch)) == parallel.ModeSP {
			return base.Forward(batch)
		}
		return shift.Forward(batch)
	})
	b, s := base.CommCounters(), shift.CommCounters()
	return comm.Counters{
		AllReduceCalls: b.AllReduceCalls + s.AllReduceCalls,
		AllReduceBytes: b.AllReduceBytes + s.AllReduceBytes,
		AllToAllCalls:  b.AllToAllCalls + s.AllToAllCalls,
		AllToAllBytes:  b.AllToAllBytes + s.AllToAllBytes,
	}, run, nil
}

// microUs times f(n) for a growing n until one call takes at least 20
// ms, then returns the median over five calls of the time per
// iteration, in microseconds.
func microUs(f func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		f(n)
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var s stats.Sample
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f(n)
		s.Add(float64(time.Since(t0)) / float64(n) / float64(time.Microsecond))
	}
	return s.Median()
}
