package stats

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Sum() != 6 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	if s.Mean() != 2 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestPercentileExact(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.P99(); math.Abs(got-99.01) > 0.05 {
		t.Fatalf("p99 = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	got := s.Percentiles(0, 50, 95, 99, 100)
	want := []float64{
		s.Percentile(0), s.Percentile(50), s.Percentile(95),
		s.Percentile(99), s.Percentile(100),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Percentiles = %v, want %v", got, want)
	}
	var empty Sample
	if got := empty.Percentiles(50, 99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty Percentiles = %v, want zeros", got)
	}
	if got := s.Percentiles(); len(got) != 0 {
		t.Fatalf("no-arg Percentiles = %v, want empty", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("p%v of single = %v", p, got)
		}
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Percentile(101)
}

func TestAddAfterPercentile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Median()
	s.Add(0)
	if s.Min() != 0 {
		t.Fatal("Add after percentile query lost re-sort")
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if s.Max() != 1500 {
		t.Fatalf("duration ms = %v", s.Max())
	}
}

func TestSummarize(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 1000 || sum.Min != 0 || sum.Max != 999 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.P50 > sum.P90 || sum.P90 > sum.P95 || sum.P95 > sum.P99 {
		t.Fatalf("percentiles not monotone: %+v", sum)
	}
	if !strings.Contains(sum.String(), "n=1000") {
		t.Fatalf("summary string %q", sum.String())
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pct := float64(p % 101)
		v := s.Percentile(pct)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries(time.Second)
	s.Observe(0, 10)
	s.Observe(500*time.Millisecond, 5)
	s.Observe(2500*time.Millisecond, 7)
	got := s.Buckets()
	want := []float64{15, 0, 7}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSeriesRatesAndPeak(t *testing.T) {
	s := NewSeries(2 * time.Second)
	s.Observe(time.Second, 100) // bucket 0: 50/s
	s.Observe(3*time.Second, 30)
	rates := s.Rates()
	if rates[0] != 50 || rates[1] != 15 {
		t.Fatalf("rates = %v", rates)
	}
	if s.Peak() != 50 {
		t.Fatalf("peak = %v", s.Peak())
	}
}

func TestSeriesNegativeTimePanics(t *testing.T) {
	s := NewSeries(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Observe(-time.Second, 1)
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Model", "TTFT", "Tput")
	tab.AddRow("Llama-70B", 159.0, 24700.0)
	tab.AddRow("Qwen-32B", 113.0, 38300.0)
	out := tab.String()
	if !strings.Contains(out, "Llama-70B") || !strings.Contains(out, "24.7k") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		45900: "45.9k",
		159:   "159",
		9.34:  "9.34",
		0.5:   "0.500",
		0:     "0",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestGrowKeepsObservations(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	s.Grow(100)
	if s.N() != 2 || cap(s.vals) < 102 {
		t.Fatalf("after Grow(100): %d observations, capacity %d", s.N(), cap(s.vals))
	}
	backing := &s.vals[0]
	for i := range 100 {
		s.Add(float64(i))
	}
	if &s.vals[0] != backing {
		t.Fatal("Add reallocated within the grown capacity")
	}
	if s.N() != 102 || s.Min() != 0 || s.Max() != 99 {
		t.Fatalf("N %d, min %v, max %v", s.N(), s.Min(), s.Max())
	}
}

func TestFracBelow(t *testing.T) {
	var empty Sample
	if empty.FracBelow(10) != 0 {
		t.Fatal("empty sample should report 0")
	}
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	cases := map[float64]float64{0: 0, 1: 0.25, 2.5: 0.5, 4: 1, 100: 1}
	for v, want := range cases {
		if got := s.FracBelow(v); got != want {
			t.Errorf("FracBelow(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tab := NewTable("Policy", "Score")
	tab.AddRow("nearest", 1.5)
	tab.AddRow("spill-over", 2.25)
	path := t.TempDir() + "/BENCH_test.json"
	if err := WriteJSON(path, []Section{{Name: "sweep", Table: tab}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Sections []Section `json:"sections"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("emitted file does not parse: %v", err)
	}
	if len(got.Sections) != 1 || got.Sections[0].Name != "sweep" {
		t.Fatalf("sections = %+v", got.Sections)
	}
	if !reflect.DeepEqual(got.Sections[0].Table, tab) {
		t.Fatalf("table did not round-trip:\n got %+v\nwant %+v", got.Sections[0].Table, tab)
	}

	if err := WriteJSON(path, nil); err == nil {
		t.Fatal("empty section list must error")
	}
	if err := WriteJSON(path, []Section{{Name: "", Table: tab}}); err == nil {
		t.Fatal("unnamed section must error")
	}
	if err := WriteJSON(path, []Section{{Name: "x", Table: nil}}); err == nil {
		t.Fatal("nil table must error")
	}
}

// TestWriteJSONRejectsDuplicateSections pins that one file cannot carry
// two sections under the same name: the BENCH files are keyed on
// (file, section), and a silent last-writer-wins would corrupt it.
func TestWriteJSONRejectsDuplicateSections(t *testing.T) {
	tab := NewTable("K", "V")
	tab.AddRow("a", 1.0)
	path := t.TempDir() + "/BENCH_dup.json"
	err := WriteJSON(path, []Section{
		{Name: "sweep", Table: tab},
		{Name: "other", Table: tab},
		{Name: "sweep", Table: tab},
	})
	if err == nil {
		t.Fatal("duplicate section names must error")
	}
	if !strings.Contains(err.Error(), "duplicate section") || !strings.Contains(err.Error(), "sweep") {
		t.Fatalf("error %q should name the duplicate section", err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("a rejected write must not leave a file behind")
	}
}
