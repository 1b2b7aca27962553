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

func TestBroadcast(t *testing.T) {
	n := 3
	results := Run(n, func(g *Group, rank int) []float64 {
		var vec []float64
		if rank == 1 {
			vec = []float64{42, 43}
		}
		return g.Broadcast(rank, 1, vec)
	})
	for r, got := range results {
		if len(got) != 2 || got[0] != 42 || got[1] != 43 {
			t.Fatalf("rank %d broadcast = %v", r, got)
		}
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
			out := g.Broadcast(rank, round%4, []float64{float64(round)})
			if len(out) != 1 || out[0] != float64(round) {
				t.Errorf("round %d broadcast %v", round, out)
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
			g.Broadcast(rank, 0, nil)
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
		g.Broadcast(rank, 0, []float64{1})
		return 0
	})
	s := g.Stats().Snapshot()
	if s.AllReduceCalls != 2 || s.AllToAllCalls != 1 || s.BroadcastCalls != 1 {
		t.Fatalf("stats = %+v", s)
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
