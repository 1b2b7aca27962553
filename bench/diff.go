package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -diff reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads every -json record a glob matches, keyed by
// workload, then metric, in file order.
func loadRecords(glob string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s matches no files", glob)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of
// vals the way Python's statistics.quantiles(vals, n=4) computes them
// (the "exclusive" method).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		switch {
		case j < 1:
			return v[0]
		case j >= n:
			return v[n-1]
		}
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	return (q3 - q1) / q2
}

// diffRuns compares the per-metric medians of two sets of runs against
// the end-to-end bounds in specPath, one row per workload. A cell reads
// B's median change against A's; "!" marks a metric worse than its
// bound, "?" one whose spread in either set is wider than its bound (the
// comparison is unresolved). It reports false when any metric is worse
// than its bound.
func diffRuns(w io.Writer, specPath, globA, globB string) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadRecords(globA)
	if err != nil {
		return false, err
	}
	bb, err := loadRecords(globB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := []string{"workload", "runs"}
	for _, m := range spec.EndToEnd {
		header = append(header, m.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	ok := true
	for _, wl := range workloadNames {
		ra, rb := a[wl], bb[wl]
		if ra == nil || rb == nil {
			continue
		}
		row := []string{wl, ""}
		for _, m := range spec.EndToEnd {
			va, vb := ra[m.Name], rb[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				row = append(row, "-")
				continue
			}
			row[1] = fmt.Sprintf("%d/%d", len(va), len(vb))
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			cell := fmt.Sprintf("%+.2f%%", 100*change)
			if worse > m.Bound {
				cell += "!"
				ok = false
			}
			if spread(va) > m.Bound || spread(vb) > m.Bound {
				cell += "?"
			}
			row = append(row, cell)
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintln(w, "cells: change of B's median against A's; ! worse than the bound, ? spread wider than the bound")
	return ok, nil
}
