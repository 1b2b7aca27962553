package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	s := o.Stream("r", "t")
	if s != nil {
		t.Fatal("nil observer returned a non-nil stream")
	}
	s.Event(time.Second, EvFinish, 1, "") // must not panic
	s.Iter(time.Second, 8)
	o.Sample(Sample{At: 1})
	if !o.Empty() || o.EventCount() != 0 || o.Streams() != nil || o.Samples() != nil || len(o.Events()) != 0 ||
		s.Iters() != nil || len(o.ThroughputSeries(time.Second).Buckets()) != 0 {
		t.Fatal("nil observer reports content")
	}
}

// Iteration records feed only the throughput series: they are not
// events, so the trace and series exports never see them.
func TestItersStayOutOfExports(t *testing.T) {
	o := NewObserver()
	a := o.Stream("", "a")
	b := o.Stream("", "b")
	a.Iter(500*time.Millisecond, 10)
	b.Iter(900*time.Millisecond, 5)
	a.Iter(2500*time.Millisecond, 7)
	if got := o.ThroughputSeries(time.Second).Buckets(); len(got) != 3 || got[0] != 15 || got[1] != 0 || got[2] != 7 {
		t.Fatalf("throughput buckets = %v, want [15 0 7]", got)
	}
	if len(a.Iters()) != 2 || a.Iters()[1] != (Iter{At: 2500 * time.Millisecond, Tokens: 7}) {
		t.Fatalf("stream a iters = %v", a.Iters())
	}
	if !o.Empty() || o.EventCount() != 0 {
		t.Fatal("iteration records counted as events")
	}
	var trace, series bytes.Buffer
	if err := o.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	empty := NewObserver()
	empty.Stream("", "a")
	empty.Stream("", "b")
	var wantTrace, wantSeries bytes.Buffer
	if err := empty.WriteChromeTrace(&wantTrace); err != nil {
		t.Fatal(err)
	}
	if err := empty.WriteSeriesCSV(&wantSeries); err != nil {
		t.Fatal(err)
	}
	if trace.String() != wantTrace.String() || series.String() != wantSeries.String() {
		t.Fatal("iteration records reached the trace or series export")
	}
}

func TestEventsTotalOrder(t *testing.T) {
	o := NewObserver()
	a := o.Stream("", "a")
	b := o.Stream("", "b")
	// Same timestamp across streams breaks ties by registration order;
	// within a stream, by append order.
	b.Event(2*time.Second, EvFinish, 2, "")
	a.Event(2*time.Second, EvEnqueue, 3, "")
	a.Event(1*time.Second, EvEnqueue, 1, "")
	a.Event(1*time.Second, EvAdmit, 1, "")
	got := o.Events()
	want := []struct {
		track string
		kind  Kind
	}{
		{"a", EvEnqueue}, {"a", EvAdmit}, {"a", EvEnqueue}, {"b", EvFinish},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Track != w.track || got[i].Kind != w.kind {
			t.Fatalf("event %d is %s/%v, want %s/%v", i, got[i].Track, got[i].Kind, w.track, w.kind)
		}
	}
}

func TestTerminalKinds(t *testing.T) {
	for _, k := range []Kind{EvFinish, EvReject, EvDrop, EvSharedHit} {
		if !k.Terminal() {
			t.Errorf("%v is not terminal", k)
		}
	}
	for _, k := range []Kind{EvEnqueue, EvAdmit, EvPrefillDone, EvPreempt, EvRoute,
		EvRetry, EvLost, EvCrash, EvRestart, EvEject, EvReadmit, EvScaleUp, EvScaleDown} {
		if k.Terminal() {
			t.Errorf("%v is terminal", k)
		}
	}
}

// chromeDoc decodes a written trace for structural assertions.
type chromeDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
	Unit        string           `json:"displayTimeUnit"`
}

func writeTrace(t *testing.T, o *Observer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestChromeTraceClosesStragglers(t *testing.T) {
	o := NewObserver()
	s := o.Stream("", "r0")
	s.Event(0, EvEnqueue, 1, "")
	s.Event(time.Second, EvAdmit, 1, "")
	s.Event(2*time.Second, EvFinish, 2, "") // unrelated terminal sets the final ts
	doc := writeTrace(t, o)
	opens, closes := 0, 0
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "b":
			opens++
		case "e":
			closes++
		}
	}
	if opens != closes {
		t.Fatalf("%d async opens vs %d closes — request 1's open prefill span leaked", opens, closes)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", doc.Unit)
	}
}

func TestSeriesJSONEmptyIsList(t *testing.T) {
	var buf bytes.Buffer
	if err := NewObserver().WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty series JSON = %q, want []", got)
	}
}

func TestExportSeriesDispatchesOnExtension(t *testing.T) {
	o := NewObserver()
	o.Sample(Sample{At: 5 * time.Second, Track: "f", Desired: 2, Active: 2})
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "s.JSON") // case-insensitive match
	csvPath := filepath.Join(dir, "s.csv")
	if err := o.ExportSeries(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := o.ExportSeries(csvPath); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Sample
	if err := json.Unmarshal(jdata, &rows); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	cdata, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(cdata)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "t_ms,track,") {
		t.Fatalf("CSV export malformed: %q", string(cdata))
	}
}
