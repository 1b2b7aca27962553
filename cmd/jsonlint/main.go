// Command jsonlint validates the JSON artifacts the simulator emits.
// BENCH_*.json files (`simctl run -json`) must parse and contain at
// least one named section with a non-empty table whose rows are
// full-width and unique within the section; `make golden` runs it on
// every file a fresh `simctl run -all` writes, so CI fails on malformed
// bench output. Chrome trace-event files (`simctl run -trace`, detected
// by their top-level "traceEvents" key) must hold well-formed events
// with non-decreasing timestamps per (pid, tid) track, matched sync B/E
// pairs, and balanced async b/e span pairs per (cat, id) — the
// invariants Perfetto needs to render every span; `make trace-smoke`
// lints fresh failure-recovery, geo and plain-cluster traces. Every file's problems are
// reported before the non-zero exit, so one broken file does not mask
// the rest.
//
// Usage:
//
//	jsonlint BENCH_*.json out.trace.json
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	args := os.Args[1:]
	if len(args) == 0 {
		log.Fatal("usage: jsonlint FILE.json ...")
	}
	// An unexpanded shell glob means the files were never written:
	// surface the real problem instead of "no such file: BENCH_*.json".
	for _, path := range args {
		if strings.ContainsAny(path, "*?[") {
			if _, err := os.Stat(path); os.IsNotExist(err) {
				log.Fatalf("no bench files found (got literal pattern %q) — run `make bench-json` first", path)
			}
		}
	}
	problems := 0
	for _, path := range args {
		errs := lint(path)
		for _, err := range errs {
			log.Printf("%s: %v", path, err)
		}
		if len(errs) > 0 {
			problems += len(errs)
			continue
		}
	}
	if problems > 0 {
		log.Fatalf("%d problem(s) across %d file(s)", problems, len(args))
	}
}

// lint validates one file and returns everything wrong with it,
// dispatching on shape: a top-level "traceEvents" key marks a Chrome
// trace-event file, anything else is linted as a bench file.
func lint(path string) []error {
	data, err := os.ReadFile(path)
	if err != nil {
		return []error{err}
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return []error{fmt.Errorf("does not parse: %v", err)}
	}
	if raw, ok := probe["traceEvents"]; ok {
		return lintTrace(path, raw)
	}
	var doc struct {
		Sections []stats.Section `json:"sections"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return []error{fmt.Errorf("does not parse: %v", err)}
	}
	if len(doc.Sections) == 0 {
		return []error{fmt.Errorf("no sections")}
	}
	var errs []error
	for _, s := range doc.Sections {
		if s.Name == "" || s.Table == nil {
			errs = append(errs, fmt.Errorf("incomplete section %+v", s))
			continue
		}
		if len(s.Table.Header) == 0 || len(s.Table.Rows) == 0 {
			errs = append(errs, fmt.Errorf("section %s has an empty table", s.Name))
			continue
		}
		// Two identical rows in one section mean a sweep emitted the
		// same axis point twice (or dropped the column distinguishing
		// two points) — a reader of the file would silently double-count it.
		seen := map[string]int{}
		for i, row := range s.Table.Rows {
			if len(row) != len(s.Table.Header) {
				errs = append(errs, fmt.Errorf("section %s row %d has %d cells for %d columns",
					s.Name, i, len(row), len(s.Table.Header)))
				continue
			}
			key := strings.Join(row, "\x1f")
			if prev, dup := seen[key]; dup {
				errs = append(errs, fmt.Errorf("section %s rows %d and %d are identical: %v",
					s.Name, prev, i, row))
				continue
			}
			seen[key] = i
		}
	}
	if len(errs) == 0 {
		fmt.Printf("%s: ok (%d sections)\n", path, len(doc.Sections))
	}
	return errs
}

// traceEvent is the subset of the Chrome trace-event schema the linter
// checks. Pid/tid/id are kept raw: the format allows numbers or
// strings, and the linter only needs them as track/span keys.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts"`
	Pid  json.RawMessage `json:"pid"`
	Tid  json.RawMessage `json:"tid"`
	ID   json.RawMessage `json:"id"`
}

// lintTrace validates one Chrome trace-event file: every event carries
// a phase (and name, timestamp, and track where its phase requires
// them), timestamps never go backwards within a (pid, tid) track, sync
// B/E events nest properly per track, and async b/e spans balance per
// (cat, id) — depth never negative, everything opened is closed.
func lintTrace(path string, raw json.RawMessage) []error {
	var events []traceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		return []error{fmt.Errorf("traceEvents does not parse: %v", err)}
	}
	if len(events) == 0 {
		return []error{fmt.Errorf("no trace events")}
	}
	var errs []error
	type track struct{ pid, tid string }
	lastTs := map[track]float64{}
	stacks := map[track][]string{} // open sync B spans, innermost last
	asyncDepth := map[string]int{} // open async spans per cat\x1fid
	tracks := map[track]bool{}
	for i, e := range events {
		switch e.Ph {
		case "M":
			// Metadata names processes and threads; it carries no timeline.
			continue
		case "B", "E", "b", "e", "i", "X":
		case "":
			errs = append(errs, fmt.Errorf("event %d has no ph", i))
			continue
		default:
			errs = append(errs, fmt.Errorf("event %d has unknown ph %q", i, e.Ph))
			continue
		}
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			errs = append(errs, fmt.Errorf("event %d (ph %s) lacks ts/pid/tid", i, e.Ph))
			continue
		}
		tr := track{string(e.Pid), string(e.Tid)}
		tracks[tr] = true
		if last, seen := lastTs[tr]; seen && *e.Ts < last {
			errs = append(errs, fmt.Errorf("event %d (ph %s %q): ts %v goes backwards on track pid=%s tid=%s (last %v)",
				i, e.Ph, e.Name, *e.Ts, tr.pid, tr.tid, last))
		}
		lastTs[tr] = *e.Ts
		switch e.Ph {
		case "B":
			stacks[tr] = append(stacks[tr], e.Name)
		case "E":
			stack := stacks[tr]
			if len(stack) == 0 {
				errs = append(errs, fmt.Errorf("event %d: E with no open B on track pid=%s tid=%s", i, tr.pid, tr.tid))
				continue
			}
			if top := stack[len(stack)-1]; e.Name != "" && e.Name != top {
				errs = append(errs, fmt.Errorf("event %d: E %q closes B %q on track pid=%s tid=%s", i, e.Name, top, tr.pid, tr.tid))
			}
			stacks[tr] = stack[:len(stack)-1]
		case "b", "e":
			if e.ID == nil || e.Cat == "" {
				errs = append(errs, fmt.Errorf("event %d: async %s lacks cat/id", i, e.Ph))
				continue
			}
			key := e.Cat + "\x1f" + string(e.ID)
			if e.Ph == "b" {
				asyncDepth[key]++
				continue
			}
			asyncDepth[key]--
			if asyncDepth[key] < 0 {
				errs = append(errs, fmt.Errorf("event %d: async e without matching b for cat=%s id=%s", i, e.Cat, e.ID))
			}
		}
	}
	for tr, stack := range stacks {
		if len(stack) > 0 {
			errs = append(errs, fmt.Errorf("track pid=%s tid=%s ends with %d unclosed B span(s): %v", tr.pid, tr.tid, len(stack), stack))
		}
	}
	open := 0
	for _, depth := range asyncDepth {
		if depth > 0 {
			open += depth
		}
	}
	if open > 0 {
		errs = append(errs, fmt.Errorf("%d async span(s) never closed", open))
	}
	if len(errs) == 0 {
		fmt.Printf("%s: ok (%d trace events, %d tracks)\n", path, len(events), len(tracks))
	}
	return errs
}
