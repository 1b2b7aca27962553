package serve

import (
	"container/list"
	"fmt"
	"time"

	"repro/internal/workload"
)

// PrefixCacheConfig replaces the assumed Config.PrefixCacheHitRate with
// a measured per-replica prefix cache: each engine tracks which cache
// keys (Request.CacheKey: session, else prompt key) it has actually
// served, in a bounded LRU charged by prompt tokens against the
// replica's KV budget. A request hits only when its key previously
// landed on the same replica and has not been evicted since — so the
// benefit of affinity routing is emergent, not configured. When
// PrefixCache is set, PrefixCacheHitRate is ignored; when nil, the
// assumed-rate path runs byte-identically to before.
type PrefixCacheConfig struct {
	// ShareFraction is the fraction of a hitting request's prompt served
	// from cache (the tokens that skip prefill compute but still occupy
	// KV blocks), in [0, 1) — the measured sibling of the assumed
	// PrefixCacheHitRate.
	ShareFraction float64
	// CapacityTokens bounds the LRU by the total prompt tokens of
	// resident keys. 0 sizes it to the replica's KV capacity — the cache
	// cannot remember more prefix than the replica can hold.
	CapacityTokens int
}

func (c *PrefixCacheConfig) validate() error {
	if c == nil {
		return nil
	}
	if c.ShareFraction < 0 || c.ShareFraction >= 1 {
		return fmt.Errorf("serve: PrefixCacheConfig.ShareFraction %v is outside [0, 1)", c.ShareFraction)
	}
	if c.CapacityTokens < 0 {
		return fmt.Errorf("serve: PrefixCacheConfig.CapacityTokens %d is negative", c.CapacityTokens)
	}
	return nil
}

// SharedCacheConfig enables the fleet-level shared cache tier on a
// Cluster or Geo: requests carrying a PromptKey that the tier has seen
// before are answered at the balancer after Latency, never reaching an
// engine (rigrun-style cache-first routing). The tier remembers the
// sharedCacheEntries most recently seen keys. Keyless requests bypass
// the tier untouched; a retry re-entering routing after a crash also
// bypasses it (the tier answers fresh arrivals, not salvage traffic).
type SharedCacheConfig struct {
	// Latency is the full response time of a shared-cache hit: the hit's
	// TTFT and Completion both equal Latency (the answer returns whole,
	// so TPOT is zero).
	Latency time.Duration
}

// sharedCacheEntries bounds the shared tier's LRU by resident key count.
const sharedCacheEntries = 4096

func (c *SharedCacheConfig) validate() error {
	if c != nil && c.Latency < 0 {
		return fmt.Errorf("serve: SharedCacheConfig.Latency %v is negative", c.Latency)
	}
	return nil
}

// lruCache is the bounded recency cache behind both tiers: the
// per-replica prefix cache bounds by token charge, the shared tier by
// entry count (either bound may be 0 = unbounded). The most recently
// touched entry is never evicted, so a single key larger than the whole
// budget still caches itself.
type lruCache struct {
	capTokens  int
	capEntries int
	usedTokens int
	ll         *list.List // front = most recent; Value is *lruEntry
	items      map[string]*list.Element
	evictions  int
}

type lruEntry struct {
	key    string
	tokens int
}

func newLRU(capTokens, capEntries int) *lruCache {
	return &lruCache{
		capTokens:  capTokens,
		capEntries: capEntries,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// access records one lookup of key, returning whether it was resident
// (a hit). Both outcomes refresh recency; a miss inserts the key with
// the given token charge, a hit re-charges the entry at the new size.
func (c *lruCache) access(key string, tokens int) bool {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.usedTokens += tokens - ent.tokens
		ent.tokens = tokens
		c.ll.MoveToFront(el)
		c.trim()
		return true
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, tokens: tokens})
	c.usedTokens += tokens
	c.trim()
	return false
}

func (c *lruCache) trim() {
	for c.ll.Len() > 1 &&
		((c.capTokens > 0 && c.usedTokens > c.capTokens) ||
			(c.capEntries > 0 && c.ll.Len() > c.capEntries)) {
		el := c.ll.Back()
		ent := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.usedTokens -= ent.tokens
		c.evictions++
	}
}

// clear drops every entry without counting evictions: a crash wipes the
// replica's KV (and with it the cached prefixes), it does not churn the
// cache.
func (c *lruCache) clear() {
	c.ll.Init()
	clear(c.items)
	c.usedTokens = 0
}

// sharedTier is the per-run state of a SharedCacheConfig: the LRU, the
// hit/miss counters, and the synthetic metrics of requests it answered.
// All methods are nil-safe so the no-cache paths stay untouched.
type sharedTier struct {
	cfg          *SharedCacheConfig
	lru          *lruCache
	hits, misses int
	served       []RequestMetrics
}

func newSharedTier(cfg *SharedCacheConfig) *sharedTier {
	if cfg == nil {
		return nil
	}
	return &sharedTier{cfg: cfg, lru: newLRU(0, sharedCacheEntries)}
}

// intercept consults the tier for one arriving request: a hit answers
// it at the balancer (recording synthetic metrics with TTFT ==
// Completion == Latency) and returns true, a miss inserts the key and
// lets routing proceed. Keyless requests bypass the tier entirely —
// they are neither counted nor inserted.
func (s *sharedTier) intercept(r workload.Request) bool {
	if s == nil || r.PromptKey == "" {
		return false
	}
	if !s.lru.access(r.PromptKey, r.InputTokens) {
		s.misses++
		return false
	}
	s.hits++
	done := r.SubmittedAt() + s.cfg.Latency
	s.served = append(s.served, servedRow(r, SharedCacheReplica, done, done))
	return true
}

// SharedCacheReplica is the Replica name stamped on requests the shared
// tier answered: they never reached an engine.
const SharedCacheReplica = "shared-cache"

// fill copies the tier's counters onto the result.
func (s *sharedTier) fill(r *Result) {
	if s == nil {
		return
	}
	r.SharedHits = s.hits
	r.SharedMisses = s.misses
}

// metricsList returns the synthetic metrics of shared-tier hits, in
// arrival order (nil-safe).
func (s *sharedTier) metricsList() []RequestMetrics {
	if s == nil {
		return nil
	}
	return s.served
}
