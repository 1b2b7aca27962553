package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// goldenScenarios is the deliberate list of registered scenario names:
// additions and removals must edit this list, so the measurement
// surface (and the BENCH_<name>.json golden files it writes) never
// changes by accident.
var goldenScenarios = []string{
	"ablation-chunk-budget",
	"ablation-dp-lockstep",
	"ablation-memory-strategy",
	"ablation-prefix-cache",
	"ablation-threshold",
	"admission-control",
	"autoscaling",
	"cache-measured",
	"cluster-routing",
	"cost-tiered",
	"eq1",
	"extension-ep",
	"failure-recovery",
	"fig10-mooncake",
	"fig12",
	"fig13",
	"fig14",
	"fig15",
	"fig16",
	"fig17",
	"fig7-table5",
	"fig8",
	"fig9-azure",
	"fleet-timeline",
	"geo-region-breakdown",
	"geo-serving",
	"hetero-routing",
	"outage-spillover",
	"retry-storm",
	"shared-cache-tier",
	"shed-spill-buy",
	"table1",
	"table2",
	"table3",
}

func TestScenarioGoldenList(t *testing.T) {
	if got := scenario.Names(); !reflect.DeepEqual(got, goldenScenarios) {
		t.Fatalf("registered scenarios diverged from the golden list (deliberate? update it):\ngot:  %v\nwant: %v",
			got, goldenScenarios)
	}
}

// runScenarioQuick runs one registered scenario at quick scale with
// default params on a sweep pool of the given width, traced into o when
// it is non-nil.
func runScenarioQuick(t *testing.T, s scenario.Scenario, workers int, o *obs.Observer) []stats.Section {
	t.Helper()
	vals, err := s.Parse(nil)
	if err != nil {
		t.Fatalf("%s: parse defaults: %v", s.Name, err)
	}
	e := DefaultEnv()
	e.Quick = true
	e.Workers = workers
	e.Obs = o
	sections, err := s.Run(scenario.Env(e), vals)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return sections
}

// noSimulator lists the scenarios that run no simulator, so -trace has
// nothing to record on them.
var noSimulator = map[string]bool{"eq1": true, "fig8": true, "table2": true}

// TestEveryScenarioRunsQuick is the registry-wide smoke, determinism and
// tracing contract: every registered scenario must run in -quick mode
// with its declared defaults and return at least one non-empty,
// well-formed section; a 4-wide pool with an observer attached must
// return identical sections to the untraced serial pool; and that
// observer must have recorded a run, unless the scenario runs no
// simulator. A scenario that breaks (or registers with a broken
// wrapper, lets cell scheduling or tracing leak into its output, or
// runs the simulator outside runCells) fails here before it fails
// `make golden`.
func TestEveryScenarioRunsQuick(t *testing.T) {
	for _, s := range scenario.List() {
		t.Run(s.Name, func(t *testing.T) {
			sections := runScenarioQuick(t, s, 1, nil)
			if len(sections) == 0 {
				t.Fatal("no sections returned")
			}
			for _, sec := range sections {
				if sec.Name == "" || sec.Table == nil {
					t.Fatalf("incomplete section %+v", sec)
				}
				if len(sec.Table.Header) == 0 || len(sec.Table.Rows) == 0 {
					t.Fatalf("section %s has an empty table", sec.Name)
				}
				for i, row := range sec.Table.Rows {
					if len(row) != len(sec.Table.Header) {
						t.Fatalf("section %s row %d has %d cells for %d columns",
							sec.Name, i, len(row), len(sec.Table.Header))
					}
				}
			}
			o := obs.NewObserver()
			if traced := runScenarioQuick(t, s, 4, o); !reflect.DeepEqual(sections, traced) {
				t.Fatalf("sections diverged between the serial pool and the traced 4-wide one:\nserial:\n%v\ntraced:\n%v",
					sections, traced)
			}
			if o.Empty() != noSimulator[s.Name] {
				t.Fatalf("observer empty = %v, want %v (runs the simulator: %v)",
					o.Empty(), noSimulator[s.Name], !noSimulator[s.Name])
			}
		})
	}
}

// TestScenarioRejectsBadParams pins the registry's input validation: each
// bad -p value must fail with an error before anything runs, never with
// a panic.
func TestScenarioRejectsBadParams(t *testing.T) {
	cases := []struct {
		scenario string
		params   map[string]string
	}{
		{"fig14", map[string]string{"rates": "0"}},
		{"fig14", map[string]string{"rates": "1,-1"}},
		{"fig7-table5", map[string]string{"series": "true", "bucket": "0s"}},
		{"cost-tiered", map[string]string{"replicahour": "-1"}},
		{"cluster-routing", map[string]string{"replicas": "0"}},
		{"failure-recovery", map[string]string{"window": "0s"}},
		{"outage-spillover", map[string]string{"outage": "0s"}},
		{"cost-tiered", map[string]string{"bursts": "0"}},
		{"cost-tiered", map[string]string{"prices": "0"}},
		{"cost-tiered", map[string]string{"fleet": "1"}},
		{"cache-measured", map[string]string{"share": "1.5"}},
		{"shed-spill-buy", map[string]string{"budget": "-1"}},
	}
	e := DefaultEnv()
	e.Quick = true
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s %v", c.scenario, c.params), func(t *testing.T) {
			s, ok := scenario.Get(c.scenario)
			if !ok {
				t.Fatalf("scenario %s not registered", c.scenario)
			}
			vals, err := s.Parse(c.params)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if _, err := s.Run(scenario.Env(e), vals); err == nil {
				t.Fatal("accepted a bad value")
			}
		})
	}
}
