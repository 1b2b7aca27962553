package experiments

import (
	"reflect"
	"testing"

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
// default params on a sweep pool of the given width.
func runScenarioQuick(t *testing.T, s scenario.Scenario, workers int) []stats.Section {
	t.Helper()
	vals, err := s.Parse(nil)
	if err != nil {
		t.Fatalf("%s: parse defaults: %v", s.Name, err)
	}
	e := DefaultEnv()
	e.Quick = true
	e.Workers = workers
	sections, err := s.Run(scenario.Env(e), vals)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return sections
}

// TestEveryScenarioRunsQuick is the registry-wide smoke and determinism
// contract: every registered scenario must run in -quick mode with its
// declared defaults and return at least one non-empty, well-formed
// section, and its sections must be identical on a serial pool and a
// 4-wide one. A scenario that breaks (or registers with a broken
// wrapper, or lets cell scheduling leak into its output) fails here
// before it fails `make golden`.
func TestEveryScenarioRunsQuick(t *testing.T) {
	for _, s := range scenario.List() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			sections := runScenarioQuick(t, s, 1)
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
			if parallel := runScenarioQuick(t, s, 4); !reflect.DeepEqual(sections, parallel) {
				t.Fatalf("sections diverged between pool widths 1 and 4:\nserial:\n%v\nparallel:\n%v",
					sections, parallel)
			}
		})
	}
}
