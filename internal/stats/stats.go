// Package stats provides the summary statistics, percentile curves, and
// time-bucketed series used by the benchmark harness to report the same
// rows and figures as the paper's evaluation section.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// Sample accumulates float64 observations.
// The zero value is an empty sample ready to use.
type Sample struct {
	vals   []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Grow makes room for n more observations, so the next n Adds do not
// reallocate. It allocates once, also under the race detector, where
// slices.Grow allocates twice.
func (s *Sample) Grow(n int) {
	if cap(s.vals)-len(s.vals) < n {
		s.vals = append(make([]float64, 0, len(s.vals)+n), s.vals...)
	}
}

// AddDuration appends a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.vals))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	s.sort()
	if len(s.vals) == 1 {
		return s.vals[0]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// FracBelow returns the fraction of observations at or below v — the
// empirical CDF, used for SLO-attainment curves ("what share of TTFTs
// landed under the deadline"). Returns 0 for an empty sample.
func (s *Sample) FracBelow(v float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return float64(sort.SearchFloat64s(s.vals, math.Nextafter(v, math.Inf(1)))) / float64(len(s.vals))
}

// Percentiles returns the requested percentiles in argument order —
// one sort shared across the batch, for table rows that report several
// quantiles of the same sample (P50/P95/P99 columns). Each p obeys
// Percentile's contract: 0 <= p <= 100, empty samples yield 0.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.Percentile(p)
	}
	return out
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Summary is a fixed set of headline statistics for reporting.
type Summary struct {
	N                  int
	Mean, Min, Max     float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary from the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		Min:  s.Min(),
		Max:  s.Max(),
		P50:  s.Percentile(50),
		P90:  s.Percentile(90),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p90=%.1f p95=%.1f p99=%.1f min=%.1f max=%.1f",
		s.N, s.Mean, s.P50, s.P90, s.P95, s.P99, s.Min, s.Max)
}

// Series is a time-bucketed counter, used for throughput-over-time plots
// (paper Figure 7). Bucket i covers [i*Width, (i+1)*Width).
type Series struct {
	Width   time.Duration
	buckets []float64
}

// NewSeries returns a Series with the given bucket width.
func NewSeries(width time.Duration) *Series {
	if width <= 0 {
		panic("stats: series width must be positive")
	}
	return &Series{Width: width}
}

// Observe adds v to the bucket containing t.
func (s *Series) Observe(t time.Duration, v float64) {
	if t < 0 {
		panic("stats: negative series time")
	}
	i := int(t / s.Width)
	for len(s.buckets) <= i {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[i] += v
}

// Buckets returns a copy of the bucket totals. Only tests call it:
// they compare raw totals exactly, which Rates would divide by the
// width.
func (s *Series) Buckets() []float64 {
	out := make([]float64, len(s.buckets))
	copy(out, s.buckets)
	return out
}

// Rates returns per-second rates for each bucket.
func (s *Series) Rates() []float64 {
	secs := s.Width.Seconds()
	out := make([]float64, len(s.buckets))
	for i, v := range s.buckets {
		out[i] = v / secs
	}
	return out
}

// Peak returns the highest per-second rate across buckets.
func (s *Series) Peak() float64 {
	peak := 0.0
	for _, r := range s.Rates() {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// Table renders rows of labeled values as an aligned text table; the
// harness uses it to print the same rows the paper reports.
type Table struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Section pairs a table with the name it publishes under in the
// machine-readable bench output: one Section per printed sweep.
type Section struct {
	Name  string `json:"name"`
	Table *Table `json:"table"`
}

// WriteJSON writes bench sections to path as indented JSON — the
// BENCH_<name>.json files `simctl run -json` emits, holding the same
// formatted cells as the printed tables, so a run can be compared byte
// for byte against a checked-in copy. Section names must be unique
// within one file: the files are keyed on (file, section), so a silent
// last-writer-wins duplicate would corrupt them.
func WriteJSON(path string, sections []Section) error {
	if len(sections) == 0 {
		return fmt.Errorf("stats: no sections to write to %s", path)
	}
	seen := make(map[string]bool, len(sections))
	for _, s := range sections {
		if s.Name == "" || s.Table == nil {
			return fmt.Errorf("stats: section %q incomplete", s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("stats: duplicate section %q in %s", s.Name, path)
		}
		seen[s.Name] = true
	}
	data, err := json.MarshalIndent(struct {
		Sections []Section `json:"sections"`
	}{sections}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatFloat renders a float compactly: integers without decimals, large
// values with thousands shorthand, small values with adaptive precision.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 10000:
		return fmt.Sprintf("%.1fk", v/1000)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
