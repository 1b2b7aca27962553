package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/workload"
)

// specFile is BENCHMARK.json's full schema.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The metric vocabulary the program emits is exactly the one
// BENCHMARK.json declares, within the schema's limits.
func TestSpecMatchesVocabulary(t *testing.T) {
	s := readSpec(t)
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(s.PerLayer))
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range s.Workloads {
		name(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, workloadNames)
	}
	check := func(kind string, defs []metricDef, n int, at func(i int) (name, unit, better string)) {
		if n != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program emits %d", kind, n, len(defs))
			return
		}
		for i, d := range defs {
			nm, unit, better := at(i)
			name(nm)
			if nm != d.name || unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], program emits %s [%s]", kind, i, nm, unit, d.name, d.unit)
			}
			if !unitRE.MatchString(unit) {
				t.Errorf("unit %q of %s does not match %s", unit, nm, unitRE)
			}
			if better != "lower" && better != "higher" {
				t.Errorf("%s: better %q", nm, better)
			}
		}
	}
	check("end_to_end", endToEnd, len(s.EndToEnd), func(i int) (string, string, string) {
		m := s.EndToEnd[i]
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		return m.Name, m.Unit, m.Better
	})
	check("per_layer", perLayer, len(s.PerLayer), func(i int) (string, string, string) {
		m := s.PerLayer[i]
		return m.Name, m.Unit, m.Better
	})
	setup := s.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
	for _, m := range s.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
}

// The whole pipeline, at two units per run, on the development seed and
// on a held-out seed: every gate passes, every metric is emitted with its
// unit, the last line is the result object, and the traces lint.
func TestPipeline(t *testing.T) {
	capacity := map[string]bool{}
	for _, s := range simSpecs {
		capacity[s.name] = s.capacity
	}
	dir := t.TempDir()
	seeds := []uint64{42, 7}
	tracePath := func(wl string, seed uint64) string { return filepath.Join(dir, fmt.Sprintf("%s-%d.json", wl, seed)) }
	t.Run("seeds", func(t *testing.T) {
		for _, seed := range seeds {
			seed := seed
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				for _, wl := range workloadNames {
					for _, trace := range []bool{false, true} {
						o := options{workload: wl, seed: seed, seconds: 1, trace: trace, maxUnits: 2, maxVariants: 1}
						if trace {
							o.traceOut = tracePath(wl, seed)
						}
						checkRun(t, o, capacity[wl])
					}
				}
			})
		}
	})
	lint := filepath.Join(dir, "jsonlint")
	if out, err := exec.Command("go", "build", "-o", lint, "repro/cmd/jsonlint").CombinedOutput(); err != nil {
		t.Fatalf("build jsonlint: %v\n%s", err, out)
	}
	var traces []string
	for _, seed := range seeds {
		for _, wl := range workloadNames {
			traces = append(traces, tracePath(wl, seed))
		}
	}
	if out, err := exec.Command(lint, traces...).CombinedOutput(); err != nil {
		t.Fatalf("jsonlint rejects the traces: %v\n%s", err, out)
	}
}

// checkRun runs one workload and checks its gates and its output.
func checkRun(t *testing.T, o options, capacity bool) {
	t.Helper()
	wl, seed := o.workload, o.seed
	r, err := run(o)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", wl, seed, o.trace, err)
	}
	if !r.correct() {
		t.Errorf("%s seed %d trace %v: gates failed: %v", wl, seed, o.trace, r.gates)
	}
	var out bytes.Buffer
	if err := r.print(&out, wl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(last, &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", wl, err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("%s: result keys %v, want exactly correct, attempted, failed, metrics", wl, keys(raw))
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", wl, res.Attempted)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", wl, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s seed %d: metric %s missing or not in %s: %+v", wl, seed, d.name, d.unit, m)
		}
		if !o.trace && m.Value <= 0 {
			t.Errorf("%s seed %d: end-to-end %s = %v, want above 0", wl, seed, d.name, m.Value)
		}
	}
	// The capacity ladder must bracket the knee: 1 and 4 are its ends, so
	// a value at either end means it measured nothing.
	if x := r.values["serve.max_load_x"]; o.trace && capacity && (x <= 1 || x >= 4) {
		t.Errorf("%s seed %d: max_load_x %v not strictly inside the ladder (1, 4)", wl, seed, x)
	}
}

func keys(m map[string]json.RawMessage) []string {
	var k []string
	for key := range m {
		k = append(k, key)
	}
	return k
}

func TestGatesCatchBrokenOutputs(t *testing.T) {
	tr := &workload.Trace{Requests: []workload.Request{{ID: 0}, {ID: 1}}}
	rows := []serve.RequestMetrics{{ID: 0}, {ID: 1}}
	if err := conserve(tr, rows); err != nil {
		t.Fatal(err)
	}
	if conserve(tr, rows[:1]) == nil {
		t.Error("conservation passed with a request missing")
	}
	if conserve(tr, append(rows, serve.RequestMetrics{ID: 1})) == nil {
		t.Error("conservation passed with a request twice")
	}
	changed := append([]serve.RequestMetrics(nil), rows...)
	changed[1].TTFT++
	if digest(changed) == digest(rows) {
		t.Error("digest missed a changed TTFT")
	}
	if digest([]serve.RequestMetrics{rows[1], rows[0]}) != digest(rows) {
		t.Error("digest depends on row order")
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4), which is
// how the spread of a set of runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, wall float64) {
		r := newReport(false)
		for _, d := range endToEnd {
			r.set(d.name, 1)
		}
		r.set("wall_ms", wall)
		if err := os.MkdirAll(filepath.Join(dir, set), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := r.writeRecord(filepath.Join(dir, set, string(rune('a'+i))+".json"), "shift-bursty", uint64(i), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write("A", i, 10)
		write("B", i, 10.1)
		write("C", i, 20)
	}
	var out bytes.Buffer
	ok, err := diffRuns(&out, "../BENCHMARK.json", filepath.Join(dir, "A/*.json"), filepath.Join(dir, "B/*.json"))
	if err != nil || !ok {
		t.Errorf("1%% slower flagged as a regression (ok=%v err=%v):\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = diffRuns(&out, "../BENCHMARK.json", filepath.Join(dir, "A/*.json"), filepath.Join(dir, "C/*.json"))
	if err != nil || ok || !strings.Contains(out.String(), "+100.00%!") {
		t.Errorf("2x slower not flagged (ok=%v err=%v):\n%s", ok, err, out.String())
	}
}
