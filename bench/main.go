// Command bench is the repository's benchmark: it drives the public APIs
// of internal/serve, perf, workload, trace, core, parallel, comm and
// tensor from outside on four workloads, checks that their outputs are
// correct, and prints every metric as "workload metric value unit"
// followed by a one-line JSON result.
//
//	bash bench/run.sh --workload shift-bursty --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh --workload dp-sessions --seed 7 --seconds 10 --trace 1 --trace-out trace.json
//	cd bench && go run . -diff 'A/*.json' 'B/*.json'
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
	jsonOut  string
	// maxUnits and maxVariants cap the timed units and the variants per
	// workload (0: no cap); the tests use them to run the whole pipeline
	// in a few seconds.
	maxUnits    int
	maxVariants int
}

func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

func (o options) variants(k int) int {
	if o.maxVariants > 0 && o.maxVariants < k {
		return o.maxVariants
	}
	return k
}

// variantSeed derives the seed of a workload's v-th variant from the
// run's seed.
func variantSeed(seed uint64, v int) uint64 { return mix(seed, 1<<32+uint64(v)) }

// workloadNames lists the workloads in presentation order.
var workloadNames = func() []string {
	names := make([]string, 0, len(simSpecs)+1)
	for _, s := range simSpecs {
		names = append(names, s.name)
	}
	return append(names, fnName)
}()

// run executes one workload and returns its report.
func run(o options) (*report, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if o.workload == fnName {
		return runFn(o)
	}
	for _, s := range simSpecs {
		if s.name == o.workload {
			return runSim(s, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
}

func main() {
	var o options
	var traceMode int
	var diff bool
	var spec string
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	flag.Uint64Var(&o.seed, "seed", 42, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the timed loop runs")
	flag.IntVar(&traceMode, "trace", 0, "0: end-to-end metrics, untraced; 1: the traced run's per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write the first traced unit's spans here as a Chrome trace")
	flag.StringVar(&o.jsonOut, "json", "", "also write the result, with the workload, seed and host, to this file")
	flag.BoolVar(&diff, "diff", false, "compare two sets of -json files: -diff 'A/*.json' 'B/*.json'")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "with -diff, the file holding the metric bounds")
	flag.Parse()

	if diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -diff takes two globs")
			os.Exit(2)
		}
		ok, err := diffRuns(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if traceMode != 0 && traceMode != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace %d: want 0 or 1\n", traceMode)
		os.Exit(2)
	}
	o.trace = traceMode == 1
	if o.traceOut != "" && !o.trace {
		fmt.Fprintln(os.Stderr, "bench: --trace-out needs --trace 1")
		os.Exit(2)
	}
	// One OS thread runs Go code: the simulator workloads are serial
	// anyway (Parallelism 1), and functional-shift's ranks interleave on
	// it. On a shared 2-vCPU host, runs that also wake goroutines on the
	// second vCPU spread twice as wide from run to run.
	runtime.GOMAXPROCS(1)
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.jsonOut != "" {
		if err := r.writeRecord(o.jsonOut, o.workload, o.seed, o.trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if err := r.print(os.Stdout, o.workload); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !r.correct() {
		os.Exit(1)
	}
}
