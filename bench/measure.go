package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sample is one timed unit of work.
type sample struct {
	wall          time.Duration
	allocs, bytes uint64
	// calib is the calibration loop's time taken just before the unit.
	calib time.Duration
}

// timeUnits calls work(i) for i = 0, 1, 2, ... until budget has elapsed
// (at least minUnits times), timing each call and taking its allocation
// counts from runtime.MemStats deltas around it. Before a unit it lets
// the host clock calibrate. after(i) runs untimed after each unit:
// output checks and resets. maxUnits > 0 stops the loop early (tests use
// it to run a fixed number of units).
func timeUnits(budget time.Duration, minUnits, maxUnits int, h *hostClock, work, after func(i int) error) ([]sample, error) {
	var before, now runtime.MemStats
	var out []sample
	start := time.Now()
	for i := 0; i < minUnits || (time.Since(start) < budget && (maxUnits <= 0 || i < maxUnits)); i++ {
		h.tick()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if err := work(i); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&now)
		out = append(out, sample{wall: wall, allocs: now.Mallocs - before.Mallocs, bytes: now.TotalAlloc - before.TotalAlloc, calib: h.last})
		if err := after(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refWallMs returns the unit wall times in milliseconds at the
// reference host speed.
func refWallMs(samples []sample) *stats.Sample {
	var s stats.Sample
	for _, x := range samples {
		s.Add(atRef(x.wall, x.calib))
	}
	return &s
}

// perItem divides the units' total allocations and allocated kilobytes
// by the number of requests (or sequences) they served.
func perItem(samples []sample, items int) (allocs, kb float64) {
	var a, b uint64
	for _, x := range samples {
		a += x.allocs
		b += x.bytes
	}
	return float64(a) / float64(items), float64(b) / 1024 / float64(items)
}

// The shared host switches between two speeds about 1.9x apart, in
// episodes from seconds to minutes, and slows all code alike only
// roughly. A raw time therefore reports the host's state more than the
// program's speed: over ten 15 s slices of one dp-sessions run, the
// median unit time spread 46%. Every timed end-to-end metric is instead
// reported at a fixed reference speed: each unit or set-up is scaled by
// the calibration loop run next to it, and over the same slices that
// spread 3%.

// calibRefMs is the calibration loop's time at the reference speed,
// about its time on a quiet 2-vCPU Xeon VM with Go 1.24.
const calibRefMs = 12.0

// calibEvery is the longest a unit or set-up waits for a calibration.
const calibEvery = 250 * time.Millisecond

// atRef converts a duration measured next to the calibration time calib
// to milliseconds at the reference speed.
func atRef(d, calib time.Duration) float64 {
	return float64(d) / float64(calib) * calibRefMs
}

// hostClock runs the calibration loop through a run, so every unit and
// set-up has one taken within calibEvery before it.
type hostClock struct {
	last  time.Duration // the latest calibration
	at    time.Time     // when it ended
	times stats.Sample  // every calibration, in milliseconds
}

// tick calibrates when the latest calibration is older than calibEvery.
func (h *hostClock) tick() {
	if h.last == 0 || time.Since(h.at) >= calibEvery {
		h.last = calibrate()
		h.at = time.Now()
		h.times.AddDuration(h.last)
	}
}

// setupRuns is the least number of fresh set-ups setup_s takes the
// median of.
const setupRuns = 11

// setups times fresh set-ups of a workload. Runs take one every
// setupEvery units through the timed loop, so set-up time samples the
// host across the whole run, like the units do.
type setups struct {
	build func() error
	host  *hostClock
	times stats.Sample // seconds at the reference speed
}

const setupEvery = 4

func (st *setups) time() error {
	st.host.tick()
	t0 := time.Now()
	if err := st.build(); err != nil {
		return err
	}
	st.times.Add(atRef(time.Since(t0), st.host.last) / 1000)
	return nil
}

// median tops the sample up to setupRuns set-ups and returns its median.
func (st *setups) median() (float64, error) {
	for st.times.N() < setupRuns {
		if err := st.time(); err != nil {
			return 0, err
		}
	}
	return st.times.Median(), nil
}

// digest is an FNV-64a hash of the per-request rows in ID order: equal
// digests mean the same program produced the same outcome for every
// request.
func digest(rows []serve.RequestMetrics) uint64 {
	sorted := append([]serve.RequestMetrics(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := fnv.New64a()
	var buf []byte
	u := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	str := func(s string) { buf = append(append(buf, s...), 0) }
	for _, m := range sorted {
		buf = buf[:0]
		u(int64(m.ID))
		str(m.Class)
		u(int64(m.Arrival))
		u(int64(m.InputTokens))
		u(int64(m.OutputTokens))
		u(int64(m.TTFT))
		u(int64(m.TPOT))
		u(int64(m.Completion))
		u(int64(m.Preemptions))
		u(int64(m.Retries))
		if m.Rejected {
			u(1)
		} else {
			u(0)
		}
		str(string(m.RejectReason))
		u(int64(m.Priority))
		if m.SLO != nil {
			u(int64(m.SLO.TTFT))
			u(int64(m.SLO.TPOT))
		}
		str(m.Replica)
		str(m.Origin)
		str(m.Region)
		u(int64(m.RTT))
		h.Write(buf)
	}
	return h.Sum64()
}

// conserve checks that every request of the trace has exactly one row
// and that no row names a request outside it.
func conserve(tr *workload.Trace, rows []serve.RequestMetrics) error {
	seen := make(map[int]int, len(tr.Requests))
	for _, r := range tr.Requests {
		seen[r.ID] = 0
	}
	for _, m := range rows {
		n, ok := seen[m.ID]
		if !ok {
			return fmt.Errorf("row for request %d, which is not in the trace", m.ID)
		}
		seen[m.ID] = n + 1
	}
	for id, n := range seen {
		if n != 1 {
			return fmt.Errorf("request %d has %d rows, want 1", id, n)
		}
	}
	return nil
}

// calibSink keeps the calibration loop's result alive.
var calibSink atomic.Uint64

type calibHeap []float64

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *calibHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibrate runs a fixed pure-Go loop that touches no program code but
// does what the simulator does: heap operations, map lookups, small
// allocations and float math. Host load slows it much as it slows the
// workloads (a pure integer loop barely notices), so the timed metrics
// are scaled by it, and a reader can tell host drift from a change in
// the program.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(7)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	type rec struct{ a, b float64 }
	h := &calibHeap{}
	m := make(map[int]*rec)
	sum := 0.0
	for i := 0; i < 60000; i++ {
		heap.Push(h, next())
		if h.Len() > 256 {
			sum += heap.Pop(h).(float64)
		}
		m[i%4096] = &rec{a: math.Exp(-next()), b: math.Log1p(next())}
		if r := m[int(next()*4096)]; r != nil {
			sum += r.a * r.b
		}
	}
	calibSink.Store(math.Float64bits(sum))
	return time.Since(t0)
}
