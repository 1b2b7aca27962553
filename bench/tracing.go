package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// span is one interval the benchmark timed around a call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 at the root
	req        int           // request id for route spans, -1 otherwise
}

// tracer records spans in memory. It is used from one goroutine: every
// traced system runs with Parallelism 1, so router, geo-router and
// autoscaler calls nest on one call stack.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, req int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, req: req})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// layerTimes is the per-name total of span self time and span count.
type layerTimes struct {
	self  map[string]time.Duration
	calls map[string]int
}

// layers sums each span name's self time: the span's duration minus the
// time its direct children cover.
func (t *tracer) layers() layerTimes {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	lt := layerTimes{self: map[string]time.Duration{}, calls: map[string]int{}}
	for i, s := range t.spans {
		lt.self[s.name] += s.end - s.start - child[i]
		lt.calls[s.name]++
	}
	return lt
}

// router wraps r in a timing wrapper; a nil tracer returns r unchanged.
func (t *tracer) router(r serve.Router) serve.Router {
	if t == nil {
		return r
	}
	return tracedRouter{r, t}
}

func (t *tracer) scaler(a serve.Autoscaler) serve.Autoscaler {
	if t == nil {
		return a
	}
	return tracedScaler{a, t}
}

func (t *tracer) geoRouter(g serve.CloudAwareGeoRouter) serve.GeoRouter {
	if t == nil {
		return g
	}
	return tracedGeoRouter{g, t}
}

type tracedRouter struct {
	inner serve.Router
	t     *tracer
}

func (r tracedRouter) Name() string { return r.inner.Name() }

func (r tracedRouter) Route(req workload.Request, replicas []serve.ReplicaView) int {
	i := r.t.begin("route", req.ID)
	defer r.t.end(i)
	return r.inner.Route(req, replicas)
}

type tracedScaler struct {
	inner serve.Autoscaler
	t     *tracer
}

func (a tracedScaler) Name() string { return a.inner.Name() }

func (a tracedScaler) Desired(v serve.FleetView) int {
	i := a.t.begin("autoscale", -1)
	defer a.t.end(i)
	return a.inner.Desired(v)
}

// tracedGeoRouter forwards RouteCloud as well as Route: the geo tier
// consults the cloud only through a CloudAwareGeoRouter, so a wrapper
// without it would silently turn the cloud tier off.
type tracedGeoRouter struct {
	inner serve.CloudAwareGeoRouter
	t     *tracer
}

func (g tracedGeoRouter) Name() string { return g.inner.Name() }

func (g tracedGeoRouter) Route(req workload.Request, origin int, regions []serve.RegionView) int {
	i := g.t.begin("geo.route", req.ID)
	defer g.t.end(i)
	return g.inner.Route(req, origin, regions)
}

func (g tracedGeoRouter) RouteCloud(req workload.Request, origin int, regions []serve.RegionView, cloud serve.CloudView) bool {
	i := g.t.begin("geo.route", req.ID)
	defer g.t.end(i)
	return g.inner.RouteCloud(req, origin, regions, cloud)
}

// writeChromeTrace exports the spans as complete ("X") events on one
// track, in start order, with the request id as an argument on route
// spans. Timestamps are microseconds.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	events := make([]event, 0, len(sorted))
	for _, s := range sorted {
		e := event{
			Name: s.name, Cat: "bench", Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		}
		if s.req >= 0 {
			e.Args = map[string]int{"request": s.req}
		}
		events = append(events, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
