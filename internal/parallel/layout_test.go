package parallel

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/transformer"
)

func cfg6() transformer.Config {
	return transformer.Config{Layers: 1, Hidden: 24, QHeads: 6, KVHeads: 2, FFN: 12}
}

func cfg8() transformer.Config {
	return transformer.Config{Layers: 2, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 32}
}

// The paper's Figure 6 example: (SP=3, TP=2) with six heads yields
// interleaved head ordering (0, 2, 4, 1, 3, 5).
func TestFigure6HeadOrder(t *testing.T) {
	lay := Layout{Cfg: cfg6(), SP: 3, TP: 2}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4, 1, 3, 5}
	if got := lay.HeadOrder(); !reflect.DeepEqual(got, want) {
		t.Fatalf("head order = %v, want %v", got, want)
	}
	// Equivalently: rank g owns head block t*SP+s.
	wantBlocks := map[int]int{0: 0, 1: 3, 2: 1, 3: 4, 4: 2, 5: 5}
	for g, b := range wantBlocks {
		if got := lay.HeadBlock(g); got != b {
			t.Errorf("rank %d block = %d, want %d", g, got, b)
		}
	}
}

func TestDegenerateLayoutsAreNatural(t *testing.T) {
	for _, lay := range []Layout{
		{Cfg: cfg8(), SP: 1, TP: 8},
		{Cfg: cfg8(), SP: 8, TP: 1},
	} {
		for g := 0; g < 8; g++ {
			if lay.HeadBlock(g) != g {
				t.Fatalf("layout SP=%d TP=%d rank %d block = %d", lay.SP, lay.TP, g, lay.HeadBlock(g))
			}
		}
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	lay := Layout{Cfg: cfg6(), SP: 3, TP: 2}
	for g := 0; g < 6; g++ {
		s, tt := lay.Coords(g)
		if lay.RankOf(s, tt) != g {
			t.Fatalf("coords round trip failed for %d", g)
		}
	}
}

// TP groups are consecutive ranks, SP groups strided — the paper's
// listing: TP [[0,1],[2,3],[4,5]], SP [[0,2,4],[1,3,5]].
func TestGroupStructure(t *testing.T) {
	lay := Layout{Cfg: cfg6(), SP: 3, TP: 2}
	for s := 0; s < 3; s++ {
		if lay.RankOf(s, 0)+1 != lay.RankOf(s, 1) {
			t.Fatal("TP group not consecutive")
		}
	}
	for tt := 0; tt < 2; tt++ {
		if lay.RankOf(1, tt)-lay.RankOf(0, tt) != 2 {
			t.Fatal("SP group not strided by TP")
		}
	}
}

func TestQHeadsPartition(t *testing.T) {
	lay := Layout{Cfg: cfg8(), SP: 2, TP: 4}
	seen := make(map[int]int)
	for g := 0; g < lay.World(); g++ {
		for _, h := range lay.QHeadsOf(g) {
			seen[h]++
		}
	}
	if len(seen) != 8 {
		t.Fatalf("q heads covered = %d", len(seen))
	}
	for h, n := range seen {
		if n != 1 {
			t.Fatalf("q head %d owned %d times", h, n)
		}
	}
}

func TestKVHeadsConsistentWithQHeads(t *testing.T) {
	lay := Layout{Cfg: cfg8(), SP: 4, TP: 2}
	gqa := lay.Cfg.GQAGroup()
	for g := 0; g < lay.World(); g++ {
		kvSet := make(map[int]bool)
		for _, kv := range lay.KVHeadsOf(g) {
			kvSet[kv] = true
		}
		for _, q := range lay.QHeadsOf(g) {
			if !kvSet[q/gqa] {
				t.Fatalf("rank %d missing kv head %d for q head %d", g, q/gqa, q)
			}
		}
	}
}

// Qwen-30B-A3B situation: fewer KV heads than ranks forces replication
// (Section 3.2.1).
func TestKVReplicationWhenFewKVHeads(t *testing.T) {
	cfg := transformer.Config{Layers: 1, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 16}
	lay := Layout{Cfg: cfg, SP: 8, TP: 1}
	if err := lay.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := lay.ReplicationFactor(); got != 4 {
		t.Fatalf("replication factor = %v, want 4", got)
	}
	// Each rank holds exactly one kv head; four ranks share each.
	owners := make(map[int]int)
	for g := 0; g < 8; g++ {
		kvs := lay.KVHeadsOf(g)
		if len(kvs) != 1 {
			t.Fatalf("rank %d holds %d kv heads", g, len(kvs))
		}
		owners[kvs[0]]++
	}
	if owners[0] != 4 || owners[1] != 4 {
		t.Fatalf("kv replication spread = %v", owners)
	}
}

func TestNoReplicationWhenEnoughKVHeads(t *testing.T) {
	lay := Layout{Cfg: cfg8(), SP: 1, TP: 2}
	if got := lay.ReplicationFactor(); got != 1 {
		t.Fatalf("replication factor = %v, want 1", got)
	}
}

func TestTPShardHeads(t *testing.T) {
	lay := Layout{Cfg: cfg6(), SP: 3, TP: 2}
	if got := lay.TPShardQHeads(0); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("shard 0 q heads = %v", got)
	}
	if got := lay.TPShardQHeads(1); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("shard 1 q heads = %v", got)
	}
	// gqa=3: q heads 0-2 -> kv 0, 3-5 -> kv 1.
	if got := lay.TPShardKVHeads(0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("shard 0 kv heads = %v", got)
	}
	if got := lay.TPShardKVHeads(1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("shard 1 kv heads = %v", got)
	}
}

func TestTPShardKVCoversRankNeeds(t *testing.T) {
	lay := Layout{Cfg: cfg8(), SP: 4, TP: 2}
	for tt := 0; tt < lay.TP; tt++ {
		shard := make(map[int]bool)
		for _, kv := range lay.TPShardKVHeads(tt) {
			shard[kv] = true
		}
		for s := 0; s < lay.SP; s++ {
			for _, kv := range lay.KVHeadsOf(lay.RankOf(s, tt)) {
				if !shard[kv] {
					t.Fatalf("shard %d missing kv %d needed by rank (%d,%d)", tt, kv, s, tt)
				}
			}
		}
	}
}

func TestLocalKVIndex(t *testing.T) {
	lay := Layout{Cfg: cfg8(), SP: 1, TP: 2}
	kvs := lay.KVHeadsOf(1)
	for i, kv := range kvs {
		if lay.LocalKVIndex(1, kv) != i {
			t.Fatal("LocalKVIndex inconsistent")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign kv head")
		}
	}()
	lay.LocalKVIndex(1, kvs[0]+100)
}

func TestValidateRejections(t *testing.T) {
	bad := []Layout{
		{Cfg: cfg8(), SP: 0, TP: 2},
		{Cfg: cfg8(), SP: 3, TP: 1}, // 8 % 3 != 0
		{Cfg: cfg6(), SP: 2, TP: 2}, // 6 % 4 != 0
		{Cfg: transformer.Config{Layers: 1, Hidden: 16, QHeads: 8, KVHeads: 2, FFN: 30}, SP: 4, TP: 1}, // ffn
	}
	for i, lay := range bad {
		if err := lay.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, lay)
		}
	}
}

// Property: for any valid grid, head blocks are a permutation of ranks.
func TestQuickHeadBlockIsPermutation(t *testing.T) {
	f := func(spRaw, tpRaw uint8) bool {
		sp := 1 + int(spRaw)%4
		tp := 1 + int(tpRaw)%4
		p := sp * tp
		cfg := transformer.Config{Layers: 1, Hidden: p * 2, QHeads: p, KVHeads: 1, FFN: p}
		lay := Layout{Cfg: cfg, SP: sp, TP: tp}
		if lay.Validate() != nil {
			return true
		}
		seen := make(map[int]bool)
		for g := 0; g < p; g++ {
			b := lay.HeadBlock(g)
			if b < 0 || b >= p || seen[b] {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The forwards read weight shards in place as one column or row range
// per head set, so every valid layout must give contiguous head sets;
// NewEngine refuses a layout that does not.
func TestEveryValidLayoutHasContiguousHeadSets(t *testing.T) {
	for _, q := range []int{1, 2, 4, 6, 8, 12, 16} {
		for _, kv := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
			for _, sp := range []int{1, 2, 3, 4, 8} {
				for _, tp := range []int{1, 2, 3, 4} {
					cfg := transformer.Config{Layers: 1, Hidden: 48 * q, QHeads: q, KVHeads: kv, FFN: 96}
					lay := Layout{Cfg: cfg, SP: sp, TP: tp}
					if lay.Validate() != nil {
						continue
					}
					if err := checkHeadRanges(lay); err != nil {
						t.Errorf("%v q=%d kv=%d: %v", lay, q, kv, err)
					}
				}
			}
		}
	}
	for _, c := range []struct {
		heads []int
		want  bool
	}{{[]int{3}, true}, {[]int{2, 3, 4}, true}, {nil, false}, {[]int{0, 2}, false}, {[]int{1, 0}, false}} {
		if got := contiguous(c.heads); got != c.want {
			t.Errorf("contiguous(%v) = %v, want %v", c.heads, got, c.want)
		}
	}
}
