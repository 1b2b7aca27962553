package comm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestAllReduceSums(t *testing.T) {
	n := 4
	results := Run(n, func(g *Group, rank int) []float64 {
		vec := []float64{float64(rank), 1, float64(rank * rank)}
		g.AllReduce(rank, vec)
		return vec
	})
	want := []float64{0 + 1 + 2 + 3, 4, 0 + 1 + 4 + 9}
	for r, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, got[i], want[i])
			}
		}
	}
}

func TestAllReduceSingleRank(t *testing.T) {
	results := Run(1, func(g *Group, rank int) []float64 {
		vec := []float64{7}
		g.AllReduce(rank, vec)
		return vec
	})
	if results[0][0] != 7 {
		t.Fatalf("single-rank allreduce = %v", results[0])
	}
}

func TestAllToAllTransposes(t *testing.T) {
	n := 3
	results := Run(n, func(g *Group, rank int) [][]float64 {
		send := make([][]float64, n)
		for j := range send {
			send[j] = []float64{float64(rank*10 + j)}
		}
		return g.AllToAll(rank, send)
	})
	// recv[j] on rank i should be what rank j sent to i: j*10 + i.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := float64(j*10 + i)
			if got := results[i][j][0]; got != want {
				t.Fatalf("rank %d recv[%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestAllToAllVariableChunks(t *testing.T) {
	n := 2
	results := Run(n, func(g *Group, rank int) [][]float64 {
		send := [][]float64{
			make([]float64, rank+1),
			make([]float64, rank+5),
		}
		for _, s := range send {
			for i := range s {
				s[i] = float64(rank)
			}
		}
		return g.AllToAll(rank, send)
	})
	if len(results[0][1]) != 2 { // rank 1 sent chunk of len 1+1=2 to rank 0
		t.Fatalf("rank 0 recv from 1 len = %d", len(results[0][1]))
	}
	if len(results[1][0]) != 5 { // rank 0 sent chunk len 0+5 to rank 1
		t.Fatalf("rank 1 recv from 0 len = %d", len(results[1][0]))
	}
}

func TestSequentialCollectives(t *testing.T) {
	// Multiple rounds through the same group must not cross-talk.
	g := NewGroup(4)
	for round := 0; round < 10; round++ {
		round := round
		RunGroup(g, func(g *Group, rank int) int {
			vec := []float64{float64(rank + round)}
			g.AllReduce(rank, vec)
			want := float64(0 + 1 + 2 + 3 + 4*round)
			if vec[0] != want {
				t.Errorf("round %d rank %d = %v, want %v", round, rank, vec[0], want)
			}
			send := make([][]float64, 4)
			for j := range send {
				send[j] = []float64{float64(round*100 + rank*10 + j)}
			}
			recv := g.AllToAll(rank, send)
			for j, got := range recv {
				if want := float64(round*100 + j*10 + rank); len(got) != 1 || got[0] != want {
					t.Errorf("round %d rank %d alltoall recv[%d] = %v, want [%v]", round, rank, j, got, want)
				}
			}
			return 0
		})
	}
}

func TestBackToBackCollectivesInOneRun(t *testing.T) {
	Run(8, func(g *Group, rank int) int {
		for i := 0; i < 50; i++ {
			v := []float64{1}
			g.AllReduce(rank, v)
			if v[0] != 8 {
				t.Errorf("iter %d rank %d: %v", i, rank, v[0])
			}
		}
		return 0
	})
}

// Back-to-back all-reduces of changing lengths on one group: each call's
// single reduction must land in every rank's vec, and a rank still copying
// one call's sum must not see the next call's (run under -race).
func TestBackToBackAllReducesOfDifferentLengths(t *testing.T) {
	const n = 4
	Run(n, func(g *Group, rank int) int {
		for i := 0; i < 40; i++ {
			vec := make([]float64, 1+(i*7)%13)
			for j := range vec {
				vec[j] = float64(rank*100 + i + j)
			}
			g.AllReduce(rank, vec)
			for j, got := range vec {
				// Sum over ranks r of r*100 + i + j.
				if want := float64(100*n*(n-1)/2 + n*(i+j)); got != want {
					t.Errorf("call %d rank %d elem %d = %v, want %v", i, rank, j, got, want)
				}
			}
		}
		return 0
	})
}

func TestMismatchedOpsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched collectives")
		}
	}()
	Run(2, func(g *Group, rank int) int {
		if rank == 0 {
			g.AllReduce(rank, []float64{1})
		} else {
			g.AllToAll(rank, [][]float64{{1}, {2}})
		}
		return 0
	})
}

func TestPeerPanicPoisonsGroup(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		if err, ok := p.(error); ok && errors.Is(err, ErrPoisoned) {
			t.Fatal("root-cause panic should win over poison")
		}
	}()
	Run(4, func(g *Group, rank int) int {
		if rank == 2 {
			panic("rank 2 died")
		}
		g.AllReduce(rank, []float64{1}) // would hang without poisoning
		return 0
	})
}

func TestAllReduceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(2, func(g *Group, rank int) int {
		g.AllReduce(rank, make([]float64, rank+1))
		return 0
	})
}

func TestTable2AllReduceWireBytes(t *testing.T) {
	// Ring all-reduce wire bytes per rank: 2*(n-1)/n * message bytes.
	for _, n := range []int{2, 4, 8} {
		g := NewGroup(n)
		msg := 1024 // elements
		RunGroup(g, func(g *Group, rank int) int {
			g.AllReduce(rank, make([]float64, msg))
			return 0
		})
		got := g.Stats().Snapshot().AllReduceBytes
		want := 8 * float64(msg) * 2 * float64(n-1) / float64(n)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d allreduce bytes = %v, want %v", n, got, want)
		}
	}
}

func TestTable2AllToAllWireBytes(t *testing.T) {
	// All-to-all wire bytes per rank: (n-1)/n * message bytes — the reason
	// SP's communication cost does not grow with parallelism degree.
	for _, n := range []int{2, 4, 8} {
		g := NewGroup(n)
		per := 128 // elements per destination
		RunGroup(g, func(g *Group, rank int) int {
			send := make([][]float64, n)
			for j := range send {
				send[j] = make([]float64, per)
			}
			g.AllToAll(rank, send)
			return 0
		})
		got := g.Stats().Snapshot().AllToAllBytes
		want := 8 * float64(per*(n-1))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d alltoall bytes = %v, want %v", n, got, want)
		}
	}
}

func TestStatsCallCounts(t *testing.T) {
	g := NewGroup(2)
	RunGroup(g, func(g *Group, rank int) int {
		g.AllReduce(rank, []float64{1})
		g.AllReduce(rank, []float64{1})
		g.AllToAll(rank, [][]float64{{1}, {2}})
		return 0
	})
	s := g.Stats().Snapshot()
	if s.AllReduceCalls != 2 || s.AllToAllCalls != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// A 1-rank group still hands each collective's data back, but it moves
// nothing on the wire, so it counts no call.
func TestOneRankGroupCountsNothing(t *testing.T) {
	g := NewGroup(1)
	RunGroup(g, func(g *Group, rank int) int {
		vec := []float64{3}
		g.AllReduce(rank, vec)
		recv := g.AllToAll(rank, [][]float64{{1, 2}})
		if vec[0] != 3 || len(recv) != 1 || len(recv[0]) != 2 || recv[0][1] != 2 {
			t.Errorf("1-rank collectives returned vec %v recv %v", vec, recv)
		}
		return 0
	})
	if s := g.Stats().Snapshot(); s != (Counters{}) {
		t.Fatalf("1-rank group counted %+v", s)
	}
}

// Property: all-reduce equals the serial sum for random vectors and sizes.
func TestQuickAllReduceMatchesSerialSum(t *testing.T) {
	f := func(seed int64, nRaw uint8, lenRaw uint8) bool {
		n := 1 + int(nRaw)%8
		l := 1 + int(lenRaw)%32
		// Deterministic per-rank inputs from the seed.
		inputs := make([][]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, l)
			for i := range inputs[r] {
				inputs[r][i] = float64((seed+int64(r*31+i)*7919)%1000) / 10
			}
		}
		want := make([]float64, l)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		results := Run(n, func(g *Group, rank int) []float64 {
			vec := append([]float64(nil), inputs[rank]...)
			g.AllReduce(rank, vec)
			return vec
		})
		for _, got := range results {
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllToAll twice returns the original layout (it is an
// involution on the chunk matrix when chunk sizes are uniform).
func TestQuickAllToAllInvolution(t *testing.T) {
	f := func(nRaw, perRaw uint8) bool {
		n := 1 + int(nRaw)%6
		per := 1 + int(perRaw)%8
		ok := true
		Run(n, func(g *Group, rank int) int {
			send := make([][]float64, n)
			for j := range send {
				send[j] = make([]float64, per)
				for i := range send[j] {
					send[j][i] = float64(rank*1000 + j*10 + i)
				}
			}
			mid := g.AllToAll(rank, send)
			back := g.AllToAll(rank, mid)
			for j := range send {
				for i := range send[j] {
					if back[j][i] != send[j][i] {
						ok = false
					}
				}
			}
			return 0
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRankOutOfRangePanics(t *testing.T) {
	g := NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AllReduce(5, []float64{1})
}

// Hundreds of back-to-back collectives on one group, each rank sending a
// different payload on every call and reusing its buffers exactly as the
// contracts allow: an AllReduce vec is rewritten as soon as the call
// returns, and the two AllToAll send sets alternate, so a set is
// rewritten once the group's next collective (the other set's AllToAll)
// has returned. Every result must be exact; run under -race.
func TestCollectivesReuseBuffersAsContracted(t *testing.T) {
	const n, calls, width = 4, 300, 5
	payload := func(call, from, to, i int) float64 { return float64(call*10000 + from*1000 + to*100 + i) }
	// A rank that saw a wrong value keeps calling, so its peers never
	// hang in a collective it skipped; it reports only its first error.
	Run(n, func(g *Group, rank int) int {
		bad := false
		// check compares element i of recv[from], or of the all-reduce
		// sum when from is -1.
		check := func(call, from, i int, got, want float64) {
			if got != want && !bad {
				bad = true
				t.Errorf("call %d rank %d from %d elem %d = %v, want %v", call, rank, from, i, got, want)
			}
		}
		var sends [2][][]float64
		for s := range sends {
			sends[s] = make([][]float64, n)
			for j := range sends[s] {
				sends[s][j] = make([]float64, width)
			}
		}
		recv := make([][]float64, n)
		vec := make([]float64, width)
		for call := 0; call < calls; call++ {
			send := sends[call%2]
			for j, buf := range send {
				for i := range buf {
					buf[i] = payload(call, rank, j, i)
				}
			}
			g.AllToAllInto(rank, send, recv)
			for j, got := range recv {
				for i, x := range got {
					check(call, j, i, x, payload(call, j, rank, i))
				}
			}
			if call%3 != 0 {
				continue
			}
			for i := range vec {
				vec[i] = payload(call, rank, 0, i)
			}
			g.AllReduce(rank, vec)
			for i, x := range vec {
				want := 0.0
				for r := 0; r < n; r++ {
					want += payload(call, r, 0, i)
				}
				check(call, -1, i, x, want)
			}
		}
		return 0
	})
}

// Steady-state collectives allocate nothing: the contributions, their
// published copy and the sum live in the group's reused buffers.
func TestSteadyStateCollectivesAllocateNothing(t *testing.T) {
	const n, runs = 4, 50
	g := NewGroup(n)
	vec := make([]float64, 8)
	send := [][]float64{{1}, {2}, {3}, {4}}
	collectives := func(rank int, recv [][]float64) {
		g.AllReduce(rank, vec)
		g.AllToAllInto(rank, send, recv)
	}
	done := make(chan struct{})
	for r := 1; r < n; r++ {
		go func(rank int) {
			defer func() { done <- struct{}{} }()
			recv := make([][]float64, n)
			own := make([]float64, len(vec))
			for i := 0; i < runs+1; i++ {
				g.AllReduce(rank, own)
				g.AllToAllInto(rank, send, recv)
			}
		}(r)
	}
	recv := make([][]float64, n)
	allocs := testing.AllocsPerRun(runs, func() { collectives(0, recv) })
	for r := 1; r < n; r++ {
		<-done
	}
	if allocs != 0 {
		t.Fatalf("a steady AllReduce plus AllToAllInto allocated %v objects, want 0", allocs)
	}
}
