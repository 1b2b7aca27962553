package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

// metricDef is one metric's name and unit. endToEnd and perLayer are the
// benchmark's whole vocabulary; the tests check them against
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off, on every workload. On
// the simulator workloads TTFT, TPOT and goodput are the modeled serving
// outcome; on functional-shift they are measured on the real engine (the
// prefill step, a unit's median decode step, and tokens per second of a
// unit). Every timed value is at the reference host speed (atRef).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ms", "ms"},
	{"allocs_per_req", "count"},
	{"kb_per_req", "KB"},
	{"ttft_p50_ms", "ms"},
	{"tpot_p50_ms", "ms"},
	{"goodput_tok_s", "tok/s"},
}

// perLayer metrics come from the traced run. A metric of a layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	// internal/serve engine: iteration loop and scheduler.
	{"engine.iters", "count"},
	{"engine.self_ms", "ms"},
	{"engine.ns_per_iter", "ns"},
	{"engine.shift_iter_frac", "ratio"},
	{"engine.preemptions", "count"},
	// internal/perf cost model.
	{"perf.iter_ns", "ns"},
	{"model.gemm_s", "s"},
	{"model.attn_s", "s"},
	{"model.allreduce_s", "s"},
	{"model.alltoall_s", "s"},
	{"model.overhead_s", "s"},
	// Routing and caching.
	{"route.calls", "count"},
	{"route.self_ms", "ms"},
	{"cache.hit_rate", "ratio"},
	{"cache.cached_token_frac", "ratio"},
	// Geo tier and fleet controller.
	{"geo.route_calls", "count"},
	{"geo.route_self_ms", "ms"},
	{"geo.spilled_frac", "ratio"},
	{"autoscale.calls", "count"},
	{"autoscale.self_ms", "ms"},
	{"autoscale.scale_ups", "count"},
	// Faults, retries, admission, breakers, cloud.
	{"fault.retries", "count"},
	{"fault.crashes", "count"},
	{"fault.ejections", "count"},
	{"fault.work_lost_tokens", "count"},
	{"retry.backoff_wait_s", "s"},
	{"admission.shed", "count"},
	{"breaker.opens", "count"},
	{"cloud.requests", "count"},
	{"cloud.spend_usd", "usd"},
	// Latency tails: modeled on the simulator workloads, measured on
	// functional-shift, where a run's few hundred units leave them too
	// noisy to gate.
	{"ttft_p99_ms", "ms"},
	{"tpot_p99_ms", "ms"},
	// Modeled outcomes that exist only on the simulator workloads.
	{"serve.slo_attainment", "ratio"},
	{"serve.failed_frac", "ratio"},
	{"serve.max_load_x", "x"},
	{"serve.usd_per_mtok", "usd/Mtok"},
	// internal/obs.
	{"obs.events", "count"},
	{"obs.overhead_x", "x"},
	// Real kernels and collectives (functional-shift).
	{"fwd.base_ms", "ms"},
	{"fwd.shift_ms", "ms"},
	{"comm.allreduce_calls", "count"},
	{"comm.allreduce_mb", "MB"},
	{"comm.alltoall_calls", "count"},
	{"comm.alltoall_mb", "MB"},
	{"comm.allreduce_us", "us"},
	{"comm.alltoall_us", "us"},
	{"tensor.matmul_us", "us"},
	// The rest of the traced unit, the tracer's own cost, diagnostics.
	{"run.other_ms", "ms"},
	{"trace.overhead_x", "x"},
	{"wall_raw_ms", "ms"},
	{"wall_ms_p90", "ms"},
	{"host.calib_ms", "ms"},
}

// report is one run's outcome: metric values, the units attempted and
// failed, and the name of every correctness gate that failed.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	gates     []string
}

func newReport(trace bool) *report {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &report{defs: defs, values: map[string]float64{}}
	for _, d := range defs {
		r.values[d.name] = 0
	}
	return r
}

func (r *report) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		panic("bench: metric " + name + " is not in this run's vocabulary")
	}
	r.values[name] = v
}

// fail records a failed correctness gate.
func (r *report) fail(gate string, err error) {
	r.gates = append(r.gates, fmt.Sprintf("%s: %v", gate, err))
}

func (r *report) correct() bool { return len(r.gates) == 0 && r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		res.Metrics[d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}

// record is what -json writes: the result plus the run's identity and
// host, so -diff can group runs by workload.
type record struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	result
}

// print writes one "workload metric value unit" line per metric, the
// failed gates, the host line, and last the JSON result.
func (r *report) print(w io.Writer, workload string) error {
	for _, d := range r.defs {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(r.values[d.name], 'g', -1, 64), d.unit)
	}
	for _, g := range r.gates {
		fmt.Fprintf(w, "%s gate failed: %s\n", workload, g)
	}
	fmt.Fprintf(w, "%s host go=%s gomaxprocs=%d numcpu=%d\n", workload, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	b, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (r *report) writeRecord(path, workload string, seed uint64, trace bool) error {
	b, err := json.MarshalIndent(record{
		Workload: workload, Seed: seed, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		result: r.result(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
