// Package comm implements the collective communication substrate that the
// parallel transformer forwards run on. Ranks are goroutines; a Group is
// the moral equivalent of an NCCL communicator. Collectives are fully
// synchronous (every rank must call the same collective in the same order,
// exactly as NCCL requires) and deterministic.
//
// Every collective also records the bytes each rank would place on the
// wire under the standard ring/pairwise algorithms, so tests can check the
// communication complexities of the paper's Table 2 against closed forms,
// and the cost model can be validated against counted traffic.
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
type Group struct {
	n int

	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	leaving  int
	seq      uint64
	slots    []any
	ready    []any
	reduced  any
	op       string
	poisoned bool

	stats Stats
}

// Counters is a lock-free copy of a group's traffic counters. Bytes are
// "wire bytes per rank": what one GPU injects into the fabric.
type Counters struct {
	AllReduceCalls int
	AllReduceBytes float64
	AllToAllCalls  int
	AllToAllBytes  float64
	BroadcastCalls int
	BroadcastBytes float64
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
	g := &Group{n: n, slots: make([]any, n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Size returns the number of ranks in the group.
func (g *Group) Size() int { return g.n }

// Stats returns the group's traffic counters.
func (g *Group) Stats() *Stats { return &g.stats }

// exchange is the rendezvous primitive underlying every collective: each
// rank contributes v and receives the slice of all ranks' contributions,
// indexed by rank. The op string guards against mismatched collectives
// (caught loudly instead of deadlocking). If reduce is non-nil, the last
// rank to arrive calls it once on the contributions while every other
// rank is still blocked in the rendezvous, and all ranks receive its
// result.
func (g *Group) exchange(rank int, op string, v any, reduce func(parts []any) any) (parts []any, reduced any) {
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
	g.slots[rank] = v
	g.arrived++
	seq := g.seq
	if g.arrived == g.n {
		g.ready = make([]any, g.n)
		copy(g.ready, g.slots)
		g.reduced = nil
		if reduce != nil {
			g.reduced = reduce(g.ready)
		}
		for i := range g.slots {
			g.slots[i] = nil
		}
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
	parts, reduced = g.ready, g.reduced
	g.leaving--
	if g.leaving == 0 {
		g.cond.Broadcast()
	}
	return parts, reduced
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
// must pass a slice of the same length.
//
// The sum is computed once: the last rank to arrive adds the
// contributions in rank order, while the others are blocked in the
// rendezvous and so not yet writing their vecs, into a fresh slice that
// every rank then copies out. A fresh slice per call keeps a slow
// reader of this call's sum safe from the next call's reduction.
func (g *Group) AllReduce(rank int, vec []float64) {
	parts, reduced := g.exchange(rank, "allreduce", vec, sumParts)
	first := parts[0].([]float64)
	for r := 1; r < g.n; r++ {
		p := parts[r].([]float64)
		if len(p) != len(first) {
			g.Poison()
			panic(fmt.Sprintf("comm: allreduce length mismatch rank %d: %d != %d", r, len(p), len(first)))
		}
	}
	copy(vec, reduced.([]float64))

	if rank == 0 {
		g.stats.mu.Lock()
		g.stats.c.AllReduceCalls++
		// Ring all-reduce: each rank sends 2*(n-1)/n of the message.
		g.stats.c.AllReduceBytes += 8 * float64(len(vec)) * 2 * float64(g.n-1) / float64(g.n)
		g.stats.mu.Unlock()
	}
}

// sumParts is AllReduce's reduction: the elementwise sum of the ranks'
// vectors, added in rank order onto zeros, or nil if their lengths
// differ (every rank then reports the mismatch).
func sumParts(parts []any) any {
	n := len(parts[0].([]float64))
	for _, p := range parts {
		if len(p.([]float64)) != n {
			return nil
		}
	}
	sum := make([]float64, n)
	for _, p := range parts {
		for i, x := range p.([]float64) {
			sum[i] += x
		}
	}
	return sum
}

// AllToAll performs the Ulysses exchange: rank i passes send with
// len(send) == n, and receives recv with recv[j] = what rank j addressed
// to rank i. Received slices alias the sender's buffers; callers must not
// mutate sent buffers after the call.
func (g *Group) AllToAll(rank int, send [][]float64) [][]float64 {
	if len(send) != g.n {
		g.Poison()
		panic(fmt.Sprintf("comm: alltoall rank %d send has %d chunks, want %d", rank, len(send), g.n))
	}
	parts, _ := g.exchange(rank, "alltoall", send, nil)
	recv := make([][]float64, g.n)
	var offDiag float64
	for j := 0; j < g.n; j++ {
		recv[j] = parts[j].([][]float64)[rank]
		if j != rank {
			offDiag += float64(len(send[j]))
		}
	}
	if rank == 0 {
		g.stats.mu.Lock()
		g.stats.c.AllToAllCalls++
		// Pairwise exchange: each rank sends everything but its own chunk.
		g.stats.c.AllToAllBytes += 8 * offDiag
		g.stats.mu.Unlock()
	}
	return recv
}

// Broadcast sends root's vec to all ranks; every rank receives a copy.
func (g *Group) Broadcast(rank, root int, vec []float64) []float64 {
	if root < 0 || root >= g.n {
		g.Poison()
		panic(fmt.Sprintf("comm: broadcast root %d out of group size %d", root, g.n))
	}
	var payload any
	if rank == root {
		payload = vec
	}
	parts, _ := g.exchange(rank, "broadcast", payload, nil)
	src := parts[root].([]float64)
	out := make([]float64, len(src))
	copy(out, src)
	if rank == 0 {
		g.stats.mu.Lock()
		g.stats.c.BroadcastCalls++
		g.stats.c.BroadcastBytes += 8 * float64(len(src))
		g.stats.mu.Unlock()
	}
	return out
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
	results := make([]T, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					// Unblock peers stuck in a collective.
					g.Poison()
				}
			}()
			results[rank] = fn(g, rank)
		}(r)
	}
	wg.Wait()
	// Prefer the root-cause panic over secondary ErrPoisoned ones.
	var poisonPanic any
	for _, p := range panics {
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
	return results
}
