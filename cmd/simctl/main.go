// Command simctl is the single CLI over the scenario registry: every
// experiment the simulator can run — paper figures and tables, routing
// and autoscaling sweeps, the fault, overload, cost and cache tiers, and
// the geo tier — is a registered internal/scenario Scenario, listed,
// parameterized, and executed uniformly. Scenario knobs that used to be
// bespoke per-binary flags are declared typed params, set with repeated
// -p key=value and validated by the registry.
// With -json each scenario's sections are written as
// BENCH_<scenario>.json via stats.WriteJSON (the checked-in golden
// files `make golden` compares against; cmd/jsonlint validates them).
// -workers N sizes the sweep worker pool that runs a scenario's cells
// concurrently; output is byte-identical at every width.
//
// Usage:
//
//	simctl list
//	simctl run <scenario>... [-quick] [-seed N] [-workers N] [-json] [-out dir] [-p key=value]...
//	simctl run -all -quick -json       # regenerate every BENCH_<scenario>.json
//	simctl run geo-region-breakdown -p policy=spill-over -p coldstart=60s
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		runList()
	case "run":
		runRun(os.Args[2:])
	case "help", "-h", "-help", "--help":
		usage()
	default:
		log.Printf("simctl: unknown command %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  simctl list                      show every registered scenario
  simctl run <scenario>... [opts]  run the named scenarios
  simctl run -all [opts]           run every registered scenario

run options:
  -quick         reduced workload scales (CI smoke; full scale reproduces the paper)
  -seed N        workload seed (default 42)
  -workers N     sweep worker pool (0 = GOMAXPROCS, 1 = serial)
  -json          write each scenario's sections as BENCH_<scenario>.json
  -out dir       directory for the BENCH files (default .)
  -p key=value   set a declared scenario param (repeatable; simctl list shows them)
  -trace file    write the run's request spans as Chrome trace-event JSON
                 (load in Perfetto / chrome://tracing; single scenario only)
  -series file   write the run's controller-tick time series (.csv, or .json
                 by extension; single scenario only)
`)
}

// params collects repeated -p key=value flags.
type params map[string]string

func (p params) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (p params) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	if _, dup := p[k]; dup {
		return fmt.Errorf("param %q set twice", k)
	}
	p[k] = v
	return nil
}

// editDistance is the Levenshtein distance between two names — small
// inputs only (scenario names), so the quadratic table is fine.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// unknownScenarioMsg builds the error for a scenario name that is not
// registered: a nearest-name suggestion when the typo is close to a
// real name, the full registry otherwise.
func unknownScenarioMsg(name string) string {
	best, bestDist := "", len(name)+1
	for _, n := range scenario.Names() {
		if d := editDistance(name, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	if best != "" && bestDist <= max(2, len(name)/3) {
		return fmt.Sprintf("unknown scenario %q (did you mean %q? simctl list shows all)", name, best)
	}
	return fmt.Sprintf("unknown scenario %q (registered: %s)",
		name, strings.Join(scenario.Names(), ", "))
}

// unknownParamMsg builds the error for a -p key no selected scenario
// declares, listing what the selection actually accepts so the fix is
// one glance away.
func unknownParamMsg(key string, scens []scenario.Scenario) string {
	var decl []string
	for _, s := range scens {
		names := make([]string, len(s.Params))
		for i, p := range s.Params {
			names[i] = p.Name
		}
		if len(names) > 0 {
			decl = append(decl, s.Name+": "+strings.Join(names, ", "))
		}
	}
	if len(decl) == 0 {
		return fmt.Sprintf("param %q is not declared by any selected scenario (the selection declares no params)", key)
	}
	return fmt.Sprintf("param %q is not declared by any selected scenario (declared — %s)",
		key, strings.Join(decl, "; "))
}

func runList() { writeList(os.Stdout) }

// writeList renders the registry listing — names, summaries, and
// declared params. The exact output is pinned by TestListGolden
// against testdata/list.golden: registry changes must regenerate it
// (go run ./cmd/simctl list > cmd/simctl/testdata/list.golden).
func writeList(w io.Writer) {
	fmt.Fprintln(w, "Registered scenarios (run with: simctl run <name> [-p key=value]...):")
	fmt.Fprintln(w)
	for _, s := range scenario.List() {
		fmt.Fprintf(w, "  %-24s %s\n", s.Name, s.Summary)
		for _, p := range s.Params {
			def := "unset"
			if p.Default != nil {
				def = fmt.Sprintf("%v", p.Default)
			}
			fmt.Fprintf(w, "  %-24s   -p %s=<%s> (default %s): %s\n", "", p.Name, p.Kind, def, p.Help)
		}
	}
}

func runRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fs.Usage = func() { usage(); os.Exit(2) }
	all := fs.Bool("all", false, "run every registered scenario")
	quick := fs.Bool("quick", false, "reduced workload scales")
	seed := fs.Uint64("seed", 42, "workload seed")
	workers := fs.Int("workers", 0, "sweep worker pool (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := fs.Bool("json", false, "write each scenario's sections as BENCH_<scenario>.json")
	outDir := fs.String("out", ".", "directory for the BENCH files")
	tracePath := fs.String("trace", "", "write request spans as Chrome trace-event JSON")
	seriesPath := fs.String("series", "", "write controller-tick time series (.csv or .json)")
	pvals := params{}
	fs.Var(pvals, "p", "scenario param key=value (repeatable)")

	// Accept flags before and after scenario names (flag.Parse stops at
	// the first non-flag argument): peel positionals off and re-parse.
	var names []string
	rest := args
	for {
		fs.Parse(rest)
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		names = append(names, rest[0])
		rest = rest[1:]
	}

	var scens []scenario.Scenario
	switch {
	case *all && len(names) > 0:
		log.Fatal("simctl run: -all and explicit scenario names are mutually exclusive")
	case *all:
		scens = scenario.List()
	case len(names) == 0:
		log.Fatal("simctl run: name at least one scenario, or pass -all (see simctl list)")
	default:
		for _, name := range names {
			s, ok := scenario.Get(name)
			if !ok {
				log.Fatalf("simctl run: %s", unknownScenarioMsg(name))
			}
			scens = append(scens, s)
		}
	}

	// Each scenario consumes the -p entries it declares; a key no
	// selected scenario declares is an error, not a silent no-op — and
	// all params parse before anything runs, so a typo cannot waste a
	// full-scale sweep.
	consumed := map[string]bool{}
	values := make([]scenario.Values, len(scens))
	for i, s := range scens {
		sub := map[string]string{}
		for k, v := range pvals {
			if s.HasParam(k) {
				sub[k] = v
				consumed[k] = true
			}
		}
		vals, err := s.Parse(sub)
		if err != nil {
			log.Fatal(err)
		}
		values[i] = vals
	}
	for k := range pvals {
		if !consumed[k] {
			log.Fatalf("simctl run: %s", unknownParamMsg(k, scens))
		}
	}

	env := experiments.DefaultEnv()
	env.Quick = *quick
	env.Seed = *seed
	env.Workers = *workers
	if *tracePath != "" || *seriesPath != "" {
		// One observer collects one scenario's runs; a multi-scenario (or
		// -all) invocation would interleave unrelated timelines.
		if *all || len(scens) != 1 {
			log.Fatal("simctl run: -trace/-series need exactly one scenario")
		}
		env.Obs = obs.NewObserver()
	}

	for i, s := range scens {
		fmt.Printf("=== %s: %s ===\n", s.Name, s.Summary)
		sections, err := s.Run(scenario.Env(env), values[i])
		if err != nil {
			log.Fatalf("simctl run %s: %v", s.Name, err)
		}
		if len(sections) == 0 {
			log.Fatalf("simctl run %s: scenario produced no sections", s.Name)
		}
		for _, sec := range sections {
			fmt.Printf("--- %s ---\n", sec.Name)
			fmt.Println(sec.Table)
		}
		if *jsonOut {
			path := filepath.Join(*outDir, "BENCH_"+s.Name+".json")
			if err := stats.WriteJSON(path, sections); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
	if env.Obs != nil {
		if env.Obs.Empty() {
			log.Fatalf("simctl run: %s produced no trace (it runs no simulator)", scens[0].Name)
		}
		if *tracePath != "" {
			if err := env.Obs.ExportChromeTrace(*tracePath); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", *tracePath)
		}
		if *seriesPath != "" {
			if err := env.Obs.ExportSeries(*seriesPath); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", *seriesPath)
		}
	}
}
