package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
)

func quickEnv() Env {
	e := DefaultEnv()
	e.Quick = true
	return e
}

func TestBasePar(t *testing.T) {
	if BasePar(model.Llama70B()) != (perf.Parallelism{SP: 8, TP: 1}) {
		t.Fatal("dense models use SP=8")
	}
	if BasePar(model.Llama17B16E()) != (perf.Parallelism{SP: 4, TP: 2}) {
		t.Fatal("L17B-16E uses (SP=4,TP=2) per Section 4.6")
	}
}

func TestFig12RunsAndOrders(t *testing.T) {
	tab, err := Fig12(quickEnv(), model.Llama70B())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.String()
	for _, sys := range Order {
		if !strings.Contains(out, sys) {
			t.Fatalf("missing system %s:\n%s", sys, out)
		}
	}
}

func TestTable1Grades(t *testing.T) {
	tab, err := Table1(quickEnv(), model.Llama70B())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "Best") {
		t.Fatalf("no Best grades:\n%s", out)
	}
	// Shift must grade Best on TTFT and TPOT (the paper's Table 1 bottom
	// row: best of both worlds in latency).
	for _, row := range tab.Rows {
		if row[0] == "Shift" {
			if row[1] != "Best" || row[2] != "Best" {
				t.Fatalf("Shift grades = %v", row)
			}
		}
		if row[0] == "TP" && row[3] == "Best" {
			t.Fatalf("TP should not grade Best on throughput: %v", row)
		}
	}
}

func TestTable2AllMatch(t *testing.T) {
	tab, err := Table2(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	combined := map[string]bool{}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Fatalf("comm formula mismatch: %v", row)
		}
		if row[0] == "SP+TP" {
			combined[row[1]+" "+row[2]] = true
		}
	}
	// 3 TP + 3 SP rows, plus both collectives of (2,2) and (4,2).
	if len(tab.Rows) != 10 || len(combined) != 4 {
		t.Fatalf("%d rows, combined %v; want 10 rows with 4 combined", len(tab.Rows), combined)
	}
}

func TestTable3Winners(t *testing.T) {
	tab, err := Table3(quickEnv(), model.Llama70B())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 3: low-traffic TTFT winner is SP, low-traffic TPOT
	// winner is TP.
	for _, row := range tab.Rows {
		switch row[0] {
		case "TTFT":
			if row[1] != "SP" {
				t.Errorf("low-traffic TTFT winner = %s, want SP", row[1])
			}
		case "TPOT":
			if row[1] != "TP" {
				t.Errorf("low-traffic TPOT winner = %s, want TP", row[1])
			}
		}
	}
}

func TestFig7Table5Shape(t *testing.T) {
	tab, _, results, err := Fig7Table5(quickEnv(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Shift has the lowest median TTFT of the three.
	shift := results["Shift"].TTFT.Median()
	if shift >= results["DP"].TTFT.Median() || shift >= results["TP"].TTFT.Median() {
		t.Fatalf("Shift median TTFT %.0f not lowest (DP %.0f, TP %.0f)",
			shift, results["DP"].TTFT.Median(), results["TP"].TTFT.Median())
	}
	// Shift throughput beats TP's.
	if results["Shift"].Throughput() <= results["TP"].Throughput() {
		t.Fatal("Shift should out-throughput TP on the bursty workload")
	}
}

func TestFig8TraceStats(t *testing.T) {
	tab, err := Fig8(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig9AzureShiftWins(t *testing.T) {
	_, results, err := Fig9Azure(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Shift obtains the lowest TTFT, TPOT, and completion.
	shift := results["Shift"]
	for _, other := range []string{"DP", "TP"} {
		if shift.Completion.Median() >= results[other].Completion.Median() {
			t.Errorf("Shift p50 completion %.0f >= %s %.0f",
				shift.Completion.Median(), other, results[other].Completion.Median())
		}
	}
}

func TestFig10MooncakeSustainability(t *testing.T) {
	_, results, err := Fig10Mooncake(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	// DP and TP drown (TTFT at least 5x Shift's); SP and Shift sustain.
	shift := results["Shift"].TTFT.Percentile(90)
	if results["DP"].TTFT.Percentile(90) < 5*shift {
		t.Errorf("DP p90 TTFT %.0f should be >> Shift %.0f",
			results["DP"].TTFT.Percentile(90), shift)
	}
	if results["TP"].TTFT.Percentile(90) < 2*shift {
		t.Errorf("TP p90 TTFT %.0f should be >> Shift %.0f",
			results["TP"].TTFT.Percentile(90), shift)
	}
	if results["SP"].TTFT.Percentile(90) > 3*shift {
		t.Errorf("SP p90 TTFT %.0f should be close to Shift %.0f",
			results["SP"].TTFT.Percentile(90), shift)
	}
}

func TestFig11Percentiles(t *testing.T) {
	_, results, err := Fig9Azure(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	tab := Fig11(results)
	if len(tab.Rows) != 4*7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig13ContextSweep(t *testing.T) {
	tab, err := Fig13(quickEnv(), model.Qwen32B(), []string{"TP", "Shift"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig14CompletionVsRate(t *testing.T) {
	tab, err := Fig14(quickEnv(), model.Llama70B(), []float64{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3*2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig15Breakdown(t *testing.T) {
	tab, err := Fig15(quickEnv(), model.Qwen32B())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4*2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// TP rows have all-reduce time; SP rows have all-to-all time.
	for _, row := range tab.Rows {
		if row[0] == "TP=8" && row[5] != "0" {
			t.Errorf("TP=8 should have zero all-to-all: %v", row)
		}
		if row[0] == "SP=8" && row[4] != "0" {
			t.Errorf("SP=8 should have zero all-reduce: %v", row)
		}
	}
}

func TestFig16ProductionStack(t *testing.T) {
	tab, err := Fig16(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig17AllModels(t *testing.T) {
	tab, err := Fig17(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4*4*2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestEq1Table(t *testing.T) {
	tab := Eq1(quickEnv())
	if len(tab.Rows) != 4*3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// SP=8 rows show 12.5% overhead.
	found := false
	for _, row := range tab.Rows {
		if row[1] == "SP=8" && row[5] == "12.5%" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing the paper's 12.5% SP=8 example")
	}
}

func TestAblations(t *testing.T) {
	e := quickEnv()
	if _, err := AblationThreshold(e, []int{1, 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationChunkBudget(e, []int{2048, 8192}); err != nil {
		t.Fatal(err)
	}
	tab, err := AblationMemoryStrategy(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("memory strategy rows = %d", len(tab.Rows))
	}
	if _, err := AblationDPLockstep(e); err != nil {
		t.Fatal(err)
	}
}

func TestExtensionEP(t *testing.T) {
	tab, err := ExtensionEP(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// The full-SP + EP8 row must exist for L17B-16E and not be n/a.
	found := false
	for _, row := range tab.Rows {
		if row[1] == "Shift (SP=8)+EP8" {
			found = true
			if row[4] == "n/a" {
				t.Fatal("SP=8+EP8 should be deployable for L17B-16E")
			}
		}
	}
	if !found {
		t.Fatal("missing the SP=8+EP8 variant")
	}
}

func TestAblationPrefixCache(t *testing.T) {
	tab, err := AblationPrefixCache(quickEnv(), []float64{0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestClusterRouting(t *testing.T) {
	tab, err := ClusterRouting(quickEnv(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// One row per router policy for the single replica count.
	if len(tab.Rows) != len(serve.RouterNames) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(serve.RouterNames))
	}
}

func TestHeteroRouting(t *testing.T) {
	tab, err := HeteroRouting(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(serve.RouterNames) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(serve.RouterNames))
	}
}

func TestAutoscaling(t *testing.T) {
	tab, err := Autoscaling(quickEnv(), []time.Duration{0, 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Three static baselines plus one row per dynamic policy x cold start.
	want := 3 + 2*(len(serve.AutoscalerNames)-1)
	if len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
}

func TestFleetTimeline(t *testing.T) {
	tab, err := FleetTimeline(quickEnv(), "slo-feedback", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no fleet samples recorded")
	}
}

func TestGeoServing(t *testing.T) {
	tab, err := GeoServing(quickEnv(), []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	// One topology in quick mode: a single-region baseline row plus one
	// row per geo policy.
	want := 1 + len(serve.GeoRouterNames)
	if len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
}

func TestGeoRegionBreakdown(t *testing.T) {
	tab, err := GeoRegionBreakdown(quickEnv(), "spill-over", 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want one per region", len(tab.Rows))
	}
}
