// Package comm implements the collective communication substrate that the
// parallel transformer forwards run on. Ranks are goroutines; a Group is
// the moral equivalent of an NCCL communicator. Collectives are fully
// synchronous (every rank must call the same collective in the same order,
// exactly as NCCL requires) and deterministic.
//
// Each group also counts its rank 0's collective calls and the bytes that
// rank would place on the wire under the standard ring/pairwise
// algorithms. A 1-rank group moves nothing and counts no call. The
// counters are measurements, not a model: the cost model lives in
// internal/perf, and perf.CommVolume must equal what they count (the
// integration tests and the table2 scenario check it).
package comm

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoisoned is the panic value delivered to ranks blocked in a
// collective when a peer rank panics, so that no goroutine hangs forever.
var ErrPoisoned = errors.New("comm: group poisoned by peer panic")

// Group is a communicator over n ranks. Create one with NewGroup and hand
// the same *Group to every participating goroutine.
//
// A group's steady-state collectives allocate nothing: contributions sit
// in typed per-rank slots, and the published copy of them and the
// all-reduce sum live in buffers the group reuses. Reuse is safe because
// the last rank to arrive at a collective is the only writer of both,
// and it writes only once all n ranks have arrived, so every rank has
// left the previous collective of that kind and finished reading it.
type Group struct {
	n int

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	leaving  int
	seq      uint64
	op       string
	poisoned bool

	vecs  slots[[]float64]   // AllReduce contributions
	sends slots[[][]float64] // AllToAll send sets
	sum   []float64          // AllReduce's sum; nil after a length mismatch

	stats Stats
}

// slots holds one collective kind's contributions by rank: in is
// written by each rank as it arrives, and ready is the copy the last
// arrival publishes for every rank to read once the rendezvous ends.
type slots[T any] struct{ in, ready []T }

func newSlots[T any](n int) slots[T] {
	return slots[T]{in: make([]T, n), ready: make([]T, n)}
}

// publish moves the contributions to ready, dropping the slots' hold on
// the callers' buffers.
func (s *slots[T]) publish() {
	copy(s.ready, s.in)
	clear(s.in)
}

// Counters is a lock-free copy of a group's traffic counters: rank 0's
// calls and wire bytes, what that GPU injects into the fabric.
type Counters struct {
	AllReduceCalls int
	AllReduceBytes float64
	AllToAllCalls  int
	AllToAllBytes  float64
}

// Stats guards the live traffic counters of a Group.
type Stats struct {
	mu sync.Mutex
	c  Counters
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// NewGroup returns a communicator over n ranks.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("comm: group size %d", n))
	}
	g := &Group{n: n, vecs: newSlots[[]float64](n), sends: newSlots[[][]float64](n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Size returns the number of ranks in the group.
func (g *Group) Size() int { return g.n }

// Stats returns the group's traffic counters.
func (g *Group) Stats() *Stats { return &g.stats }

// exchange is the rendezvous primitive underlying every collective:
// each rank calls put under the group's lock to place its contribution
// in its slot, and the last rank to arrive calls publish once, still
// under the lock and while every other rank is blocked in the
// rendezvous, to publish the contributions (and reduce them). Every rank
// returns after publish. The op string guards against mismatched
// collectives (caught loudly instead of deadlocking).
func (g *Group) exchange(rank int, op string, put, publish func()) {
	if rank < 0 || rank >= g.n {
		panic(fmt.Sprintf("comm: rank %d out of group size %d", rank, g.n))
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	// Wait for the previous collective's stragglers to depart.
	for g.leaving > 0 && !g.poisoned {
		g.cond.Wait()
	}
	if g.poisoned {
		panic(ErrPoisoned)
	}
	if g.arrived == 0 {
		g.op = op
	} else if g.op != op {
		g.poisonLocked()
		panic(fmt.Sprintf("comm: rank %d called %s while group is in %s", rank, op, g.op))
	}
	put()
	g.arrived++
	seq := g.seq
	if g.arrived == g.n {
		publish()
		g.arrived = 0
		g.leaving = g.n
		g.seq++
		g.cond.Broadcast()
	} else {
		for g.seq == seq && !g.poisoned {
			g.cond.Wait()
		}
		if g.poisoned {
			panic(ErrPoisoned)
		}
	}
	g.leaving--
	if g.leaving == 0 {
		g.cond.Broadcast()
	}
}

// Poison wakes all blocked ranks with a panic; used when a peer dies.
func (g *Group) Poison() {
	g.mu.Lock()
	g.poisonLocked()
	g.mu.Unlock()
}

func (g *Group) poisonLocked() {
	g.poisoned = true
	g.cond.Broadcast()
}

// AllReduce sums vecs elementwise across all ranks, in place. Every rank
// must pass a slice of the same length. vec may be rewritten as soon as
// the call returns.
//
// The sum is computed once: the last rank to arrive adds the
// contributions in rank order, while the others are blocked in the
// rendezvous and so not yet writing their vecs, into the group's one sum
// buffer, which every rank then copies out. Reusing that buffer is safe:
// the next reduction on the group runs only after all n ranks have
// arrived at the next collective, and a rank arrives only after it has
// copied this sum.
func (g *Group) AllReduce(rank int, vec []float64) {
	g.exchange(rank, "allreduce", func() { g.vecs.in[rank] = vec }, func() {
		g.vecs.publish()
		g.reduce()
	})
	parts := g.vecs.ready
	for r := 1; r < g.n; r++ {
		if len(parts[r]) != len(parts[0]) {
			g.Poison()
			panic(fmt.Sprintf("comm: allreduce length mismatch rank %d: %d != %d", r, len(parts[r]), len(parts[0])))
		}
	}
	copy(vec, g.sum)

	if rank == 0 && g.n > 1 {
		g.stats.mu.Lock()
		g.stats.c.AllReduceCalls++
		// Ring all-reduce: each rank sends 2*(n-1)/n of the message.
		g.stats.c.AllReduceBytes += 8 * float64(len(vec)) * 2 * float64(g.n-1) / float64(g.n)
		g.stats.mu.Unlock()
	}
}

// reduce is AllReduce's reduction: the elementwise sum of the published
// vectors, added in rank order onto zeros, into g.sum, or a nil g.sum if
// their lengths differ (every rank then reports the mismatch).
func (g *Group) reduce() {
	parts := g.vecs.ready
	n := len(parts[0])
	for _, p := range parts {
		if len(p) != n {
			g.sum = nil
			return
		}
	}
	if cap(g.sum) < n {
		g.sum = make([]float64, n)
	}
	g.sum = g.sum[:n]
	clear(g.sum)
	for _, p := range parts {
		for i, x := range p {
			g.sum[i] += x
		}
	}
}

// AllToAll performs the Ulysses exchange: rank i passes send with
// len(send) == n, and receives recv with recv[j] = what rank j addressed
// to rank i. Received slices alias the senders' buffers, so a rank may
// rewrite a buffer it sent only once the group's next collective has
// returned on it: every rank has then arrived there, done with this
// call's recv. Until then neither sender nor receiver may write them.
func (g *Group) AllToAll(rank int, send [][]float64) [][]float64 {
	return g.AllToAllInto(rank, send, make([][]float64, g.n))
}

// AllToAllInto is AllToAll filling the caller's recv (len n) instead of
// allocating one, and returning it.
func (g *Group) AllToAllInto(rank int, send, recv [][]float64) [][]float64 {
	if len(send) != g.n || len(recv) != g.n {
		g.Poison()
		panic(fmt.Sprintf("comm: alltoall rank %d send has %d chunks and recv %d, want %d", rank, len(send), len(recv), g.n))
	}
	g.exchange(rank, "alltoall", func() { g.sends.in[rank] = send }, g.sends.publish)
	var offDiag float64
	for j, sent := range g.sends.ready {
		recv[j] = sent[rank]
		if j != rank {
			offDiag += float64(len(send[j]))
		}
	}
	if rank == 0 && g.n > 1 {
		g.stats.mu.Lock()
		g.stats.c.AllToAllCalls++
		// Pairwise exchange: each rank sends everything but its own chunk.
		g.stats.c.AllToAllBytes += 8 * offDiag
		g.stats.mu.Unlock()
	}
	return recv
}

// Run launches fn on every rank of a fresh n-rank group, waits for all to
// finish, and returns the per-rank results. It is the standard harness
// used by the parallel forwards and their tests. If any rank panics, the
// first non-poison panic is re-raised on the caller after all ranks settle.
func Run[T any](n int, fn func(g *Group, rank int) T) []T {
	return RunGroup(NewGroup(n), fn)
}

// RunGroup is Run over an existing group (so callers can accumulate
// traffic stats across calls).
func RunGroup[T any](g *Group, fn func(g *Group, rank int) T) []T {
	n := g.Size()
	r := &run[T]{g: g, fn: fn, results: make([]T, n), panics: make([]any, n)}
	r.wg.Add(n)
	for rank := 0; rank < n; rank++ {
		go r.rank(rank)
	}
	r.wg.Wait()
	// Prefer the root-cause panic over secondary ErrPoisoned ones.
	var poisonPanic any
	for _, p := range r.panics {
		if p == nil {
			continue
		}
		if err, ok := p.(error); ok && errors.Is(err, ErrPoisoned) {
			poisonPanic = p
			continue
		}
		panic(p)
	}
	if poisonPanic != nil {
		panic(poisonPanic)
	}
	return r.results
}

// run is one RunGroup call's shared state, allocated once for all its
// rank goroutines.
type run[T any] struct {
	g       *Group
	fn      func(g *Group, rank int) T
	results []T
	panics  []any
	wg      sync.WaitGroup
}

// rank runs fn as one rank, recording its result or its panic.
func (r *run[T]) rank(rank int) {
	defer r.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			r.panics[rank] = p
			// Unblock peers stuck in a collective.
			r.g.Poison()
		}
	}()
	r.results[rank] = r.fn(r.g, rank)
}
