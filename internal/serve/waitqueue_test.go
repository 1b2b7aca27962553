package serve

import (
	"math/bits"
	"slices"
	"testing"
)

// set replaces the queue contents (tests build scheduling scenarios
// directly).
func (q *waitQueue) set(ss []*seq) {
	q.clear()
	q.buf = append(q.buf, ss...)
}

// TestWaitQueueReclaimsSlack runs a long engine-like sequence on one
// waitQueue: arrivals pushed at the back, admissions from the head, a
// preemption (push-front, then its re-admission) every turn, bursts that
// lengthen the queue, and some mid-queue removals. Against a plain-slice
// model the order must never differ. The buffer must stay within a
// constant multiple of the longest live queue, and the whole sequence
// must allocate only while the buffer first grows to that size: neither
// bound may grow with the number of turns.
func TestWaitQueueReclaimsSlack(t *testing.T) {
	const turns = 20000
	pool := make([]seq, 64)
	run := func(check bool) (maxLive, maxCap int) {
		var q waitQueue
		var model []*seq
		next := 0
		arrive := func() *seq { next = (next + 1) % len(pool); return &pool[next] }
		op := func(f func(), g func()) {
			f()
			if check {
				g()
				if !slices.Equal(q.seqs(), model) {
					t.Fatalf("queue order %v differs from model %v", q.seqs(), model)
				}
			}
			maxLive, maxCap = max(maxLive, q.len()), max(maxCap, cap(q.buf))
		}
		pushBack := func() { s := arrive(); op(func() { q.pushBack(s) }, func() { model = append(model, s) }) }
		pushFront := func() { s := arrive(); op(func() { q.pushFront(s) }, func() { model = slices.Insert(model, 0, s) }) }
		removeAt := func(i int) { op(func() { q.removeAt(i) }, func() { model = slices.Delete(model, i, i+1) }) }
		for range 8 {
			pushBack()
		}
		for i := range turns {
			removeAt(0) // admit
			pushBack()  // an arrival
			pushFront() // preempt
			removeAt(0) // and re-admit
			if i%50 == 0 {
				for range 9 {
					pushBack()
				}
				removeAt(q.len() / 2)
				for range 8 {
					removeAt(0)
				}
			}
		}
		return maxLive, maxCap
	}
	maxLive, maxCap := run(true)
	// Growth happens only with at most 2*frontSlack+n = 2n+8 slots in
	// use, and append at most doubles that (plus size-class rounding).
	if maxCap > 5*maxLive+20 {
		t.Errorf("buffer capacity reached %d for a longest queue of %d", maxCap, maxLive)
	}
	// One allocation per doubling up to maxCap, and one push-front.
	if allocs, growth := testing.AllocsPerRun(1, func() { run(false) }), bits.Len(uint(maxCap))+1; allocs > float64(growth) {
		t.Errorf("%d turns allocate %v times, more than the %d of the buffer's growth to %d slots", turns, allocs, growth, maxCap)
	}

	// A push-front with no front slack, then a push-back, on a full
	// 16-slot queue: the push-front moves the queue into a new buffer with
	// room at the back, so the push-back does not reallocate. The queue
	// reads s, the old queue, s.
	const runs = 100
	queues := make([]waitQueue, runs+1)
	for i := range queues {
		queues[i].buf = make([]*seq, 16)
		for j := range queues[i].buf {
			queues[i].buf[j] = &pool[j]
		}
	}
	s, k := &pool[63], 0
	if allocs := testing.AllocsPerRun(runs, func() {
		queues[k].pushFront(s)
		queues[k].pushBack(s)
		k++
	}); allocs != 1 {
		t.Errorf("push-front at head 0 then push-back: %v allocations, want the push-front's 1", allocs)
	}
	want := []*seq{s}
	for j := range 16 {
		want = append(want, &pool[j])
	}
	if want = append(want, s); !slices.Equal(queues[0].seqs(), want) {
		t.Errorf("queue %v, want %v", queues[0].seqs(), want)
	}
}
