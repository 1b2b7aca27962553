package serve

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// --- LRU unit semantics ---

func TestLRUAccessAndEviction(t *testing.T) {
	c := newLRU(100, 0)
	if c.access("a", 40) {
		t.Fatal("first access of a key reported a hit")
	}
	if !c.access("a", 40) {
		t.Fatal("second access of a resident key reported a miss")
	}
	c.access("b", 40) // a, b resident: 80 tokens
	c.access("c", 40) // 120 > 100: evicts the least recent (a)
	if c.access("a", 40) {
		t.Fatal("evicted key still resident")
	}
	if c.evictions != 2 {
		// c's insert evicted a; re-inserting a evicted b.
		t.Fatalf("evictions = %d, want 2", c.evictions)
	}
	if !c.access("c", 40) {
		t.Fatal("most recent survivor was evicted")
	}
}

func TestLRUHitRecharges(t *testing.T) {
	c := newLRU(100, 0)
	c.access("a", 30)
	// A session's prefix grows turn over turn: the hit re-charges the
	// entry at the new size.
	c.access("a", 70)
	if c.usedTokens != 70 {
		t.Fatalf("usedTokens = %d after recharge, want 70", c.usedTokens)
	}
	c.access("b", 40) // 110 > 100: evicts a, the least recent
	if c.access("a", 30) {
		t.Fatal("recharged entry should have been evicted as least recent")
	}
	if !c.access("b", 40) {
		t.Fatal("most recent key evicted instead of the recharged one")
	}
}

func TestLRUSoleEntryNeverEvicted(t *testing.T) {
	c := newLRU(10, 0)
	if c.access("huge", 1000) {
		t.Fatal("first access reported a hit")
	}
	if !c.access("huge", 1000) {
		t.Fatal("a key larger than the whole budget must still cache itself")
	}
	if c.evictions != 0 {
		t.Fatalf("evictions = %d, want 0", c.evictions)
	}
}

func TestLRUEntryBound(t *testing.T) {
	c := newLRU(0, 2)
	c.access("a", 1)
	c.access("b", 1)
	c.access("c", 1) // evicts a
	if c.access("a", 1) {
		t.Fatal("entry bound did not evict the least recent key")
	}
	if c.ll.Len() != 2 {
		t.Fatalf("resident entries = %d, want 2", c.ll.Len())
	}
}

func TestLRUClearCountsNoEvictions(t *testing.T) {
	c := newLRU(100, 0)
	c.access("a", 10)
	c.access("b", 10)
	c.clear()
	if c.evictions != 0 {
		t.Fatalf("clear counted %d evictions, want 0 (a crash wipes, it does not churn)", c.evictions)
	}
	if c.usedTokens != 0 || c.ll.Len() != 0 {
		t.Fatalf("clear left %d tokens / %d entries resident", c.usedTokens, c.ll.Len())
	}
	if c.access("a", 10) {
		t.Fatal("cleared key still resident")
	}
}

// --- workload helpers ---

// sessionedTrace is a Poisson stream whose requests cycle through a
// fixed session pool, so measured hits require routing to keep a
// session on its home replica.
func sessionedTrace(t *testing.T, seed uint64, sessions int) *workload.Trace {
	t.Helper()
	sizes := workload.LognormalSize{
		MedianIn: 400, SigmaIn: 0.5, MaxIn: 2000, MinIn: 64,
		MedianOut: 64, SigmaOut: 0.4, MaxOut: 200, MinOut: 8,
	}
	tr := workload.Poisson("cache", tensor.NewRNG(seed), 3.0, 30*time.Second, sizes, "chat")
	for i := range tr.Requests {
		tr.Requests[i].Session = fmt.Sprintf("sess-%d", i%sessions)
	}
	return tr
}

func cacheCluster(t *testing.T, routerName string, pc *PrefixCacheConfig, sc *SharedCacheConfig) Cluster {
	t.Helper()
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, PrefixCache: pc}
	cl := DPCluster("cache", cfg, 3)
	cl.SharedCache = sc
	if routerName != "" {
		r, err := NewRouter(routerName)
		if err != nil {
			t.Fatal(err)
		}
		cl.Router = r
	}
	return cl
}

// --- measured prefix cache properties ---

// TestCacheConservation pins the counting contract under every routing
// policy: each request the fleet admits is exactly one hit or one miss,
// and the per-replica split sums to the fleet totals.
func TestCacheConservation(t *testing.T) {
	tr := sessionedTrace(t, 21, 8)
	for _, router := range RouterNames {
		router := router
		t.Run(router, func(t *testing.T) {
			// A small capacity forces evictions, so conservation is
			// checked on the churning cache, not just the steady one.
			cl := cacheCluster(t, router, &PrefixCacheConfig{
				ShareFraction: 0.5, CapacityTokens: 4096,
			}, nil)
			res, err := cl.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.CacheHits + res.CacheMisses; got != len(tr.Requests) {
				t.Fatalf("hits %d + misses %d = %d, want one per admitted request (%d)",
					res.CacheHits, res.CacheMisses, got, len(tr.Requests))
			}
			hits, misses, evicts := 0, 0, 0
			for _, rc := range res.ReplicaCaches {
				hits += rc.Hits
				misses += rc.Misses
				evicts += rc.Evictions
			}
			if hits != res.CacheHits || misses != res.CacheMisses || evicts != res.CacheEvictions {
				t.Fatalf("per-replica split (%d/%d/%d) does not sum to fleet totals (%d/%d/%d)",
					hits, misses, evicts, res.CacheHits, res.CacheMisses, res.CacheEvictions)
			}
			if hr := res.MeasuredHitRate(); hr < 0 || hr > 1 {
				t.Fatalf("measured hit rate %v outside [0, 1]", hr)
			}
		})
	}
}

// TestCacheTokenShareCeiling pins the measured cache's headline
// property: the prompt-token fraction actually served from cache can
// never exceed the configured ShareFraction — the assumed-rate baseline
// is a true ceiling.
func TestCacheTokenShareCeiling(t *testing.T) {
	tr := sessionedTrace(t, 22, 6)
	totalIn := 0
	for _, r := range tr.Requests {
		totalIn += r.InputTokens
	}
	const share = 0.6
	for _, router := range []string{"affinity", "cache-aware", "least-outstanding"} {
		router := router
		t.Run(router, func(t *testing.T) {
			cl := cacheCluster(t, router, &PrefixCacheConfig{ShareFraction: share}, nil)
			res, err := cl.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := float64(res.CacheCachedTokens); got > share*float64(totalIn) {
				t.Fatalf("cached tokens %v exceed the ShareFraction ceiling %v",
					got, share*float64(totalIn))
			}
			if res.CacheHits > 0 && res.CacheCachedTokens == 0 {
				t.Fatal("hits recorded but no tokens served from cache")
			}
		})
	}
}

// TestUniqueSessionsNeverHit: a key seen once can never hit, whatever
// the router does — the measured cache has no way to assume a rate.
func TestUniqueSessionsNeverHit(t *testing.T) {
	tr := sessionedTrace(t, 23, 4)
	for i := range tr.Requests {
		tr.Requests[i].Session = fmt.Sprintf("unique-%d", i)
	}
	cl := cacheCluster(t, "round-robin", &PrefixCacheConfig{ShareFraction: 0.6}, nil)
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Fatalf("unique sessions produced %d hits, want 0", res.CacheHits)
	}
	if res.CacheMisses != len(tr.Requests) {
		t.Fatalf("misses %d, want every request (%d)", res.CacheMisses, len(tr.Requests))
	}
	if res.CacheCachedTokens != 0 {
		t.Fatalf("cached tokens %d without a single hit", res.CacheCachedTokens)
	}
}

// TestNilPrefixCacheKeepsCountersZero pins the gating: the assumed-rate
// path must not touch the measured counters.
func TestNilPrefixCacheKeepsCountersZero(t *testing.T) {
	tr := sessionedTrace(t, 24, 4)
	cm := llamaCM(t)
	cfg := Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, PrefixCacheHitRate: 0.6}
	cl := DPCluster("assumed", cfg, 3)
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 || res.CacheEvictions != 0 || res.CacheCachedTokens != 0 {
		t.Fatalf("assumed-rate run touched measured counters: %+v", res)
	}
	if res.ReplicaCaches != nil {
		t.Fatalf("assumed-rate run reported per-replica caches: %v", res.ReplicaCaches)
	}
	if res.SharedHits != 0 || res.SharedMisses != 0 {
		t.Fatal("no shared tier configured but shared counters moved")
	}
}

// TestEngineMeasuredHit drives one engine directly: the second turn of
// a session hits, and the cached prefix is the clamped share of its own
// prompt.
func TestEngineMeasuredHit(t *testing.T) {
	cm := llamaCM(t)
	cfg := Config{
		CM: cm, Par: perf.Parallelism{SP: 1, TP: 1},
		PrefixCache: &PrefixCacheConfig{ShareFraction: 0.5},
	}
	reqs := []workload.Request{
		{ID: 0, InputTokens: 800, OutputTokens: 16, Session: "s"},
		{ID: 1, Arrival: 30 * time.Second, InputTokens: 900, OutputTokens: 16, Session: "s"},
	}
	res, err := SingleEngine("hit", cfg).Run(&workload.Trace{Name: "hit", Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 1 || res.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", res.CacheHits, res.CacheMisses)
	}
	if want := int(0.5 * 900); res.CacheCachedTokens != want {
		t.Fatalf("cached tokens = %d, want %d (half the hitting prompt)", res.CacheCachedTokens, want)
	}
}

// --- shared tier properties ---

// TestSharedTierConservation pins the fleet tier's contract: every
// keyed request is exactly one shared hit or miss, keyless traffic
// bypasses the tier, and no request is lost — hits come back as
// synthetic metrics with the configured answer latency.
func TestSharedTierConservation(t *testing.T) {
	tr := sessionedTrace(t, 25, 4)
	for i := range tr.Requests {
		tr.Requests[i].Session = "" // isolate the tier: PromptKey only
	}
	tr.StampPromptKeys(25, 0.5, 16)
	keyed := 0
	for _, r := range tr.Requests {
		if r.PromptKey != "" {
			keyed++
		}
	}
	if keyed == 0 {
		t.Fatal("trace stamping produced no keyed requests")
	}
	const lat = 30 * time.Millisecond
	cl := cacheCluster(t, "", nil, &SharedCacheConfig{Latency: lat})
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SharedHits + res.SharedMisses; got != keyed {
		t.Fatalf("shared hits %d + misses %d = %d, want one per keyed request (%d)",
			res.SharedHits, res.SharedMisses, got, keyed)
	}
	if res.SharedHits == 0 {
		t.Fatal("repeated prompts produced no shared hits")
	}
	if len(res.PerRequest) != len(tr.Requests) {
		t.Fatalf("%d metrics for %d requests: the tier lost or duplicated work",
			len(res.PerRequest), len(tr.Requests))
	}
	servedShared := 0
	for _, m := range res.PerRequest {
		if m.Replica != SharedCacheReplica {
			continue
		}
		servedShared++
		if m.TTFT != lat || m.Completion != lat {
			t.Fatalf("shared hit %d answered with TTFT %v / completion %v, want %v",
				m.ID, m.TTFT, m.Completion, lat)
		}
	}
	if servedShared != res.SharedHits {
		t.Fatalf("%d shared-replica metrics for %d shared hits", servedShared, res.SharedHits)
	}
	if hr := res.SharedHitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("shared hit rate %v, want strictly inside (0, 1) for this workload", hr)
	}
}
