package serve

import (
	"fmt"
	"hash/fnv"

	"repro/internal/workload"
)

// ReplicaView is what a Router sees about one replica when placing a
// request at its arrival time: the work handed out to it so far, its KV
// headroom, and its live backlog.
type ReplicaView struct {
	// Name is the replica's name, its identity across scale events.
	Name string
	// OutstandingTokens is the total input+output tokens of requests
	// already assigned to this replica (cumulative; a replica activated
	// mid-run starts level with the least-loaded incumbent).
	OutstandingTokens int
	// FreeKVTokens is the replica's total paged-KV budget minus the peak
	// KV demand (TotalTokens) of the assigned work. Budgets differ across
	// replicas in heterogeneous fleets (different parallelism or stacks
	// leave different free memory), and it goes negative when the replica
	// is oversubscribed.
	FreeKVTokens int
	// LiveTokens is the input+output tokens of the work still on the
	// replica, read from its engine's backlog: routed and not yet
	// finished, rejected, shed or crash-lost, where OutstandingTokens
	// accumulates forever. A fleet routed by a built-in that never reads
	// it (assignedRouter) does not step its replicas to keep it current.
	LiveTokens int
	// BreakerOpen marks a replica whose circuit breaker is open: alive
	// and routable, but drowning. Breaker-aware routers prefer other
	// replicas and fall back to open ones only when every replica is
	// open. Always false when breakers are disabled.
	BreakerOpen bool
}

// Router places each arriving request on a replica. Route is called in
// arrival order and must be deterministic: equal-score ties break toward
// the lowest replica index in every built-in policy, so a run is
// reproducible bit-for-bit. Routers holding per-run state additionally
// implement reset(), which Cluster.Run calls before routing so repeated
// runs of one cluster assign identically. A custom router always gets
// live views: every replica is stepped to the arrival before it routes.
type Router interface {
	Name() string
	// Route returns the index of the replica that receives r. Returning
	// an out-of-range index is a cluster error. The replicas slice is
	// reused across calls, so a router must not keep it.
	Route(r workload.Request, replicas []ReplicaView) int
}

// --- Round-robin ---

// resettable marks routers and autoscalers with per-run state; every run
// resets them before routing a trace.
type resettable interface{ reset() }

// assignedRouter marks the built-in routers that read only a view's
// Name and assigned work (OutstandingTokens, FreeKVTokens), never the
// fields live replica state feeds. A fleet routed by one need not step
// its replicas at an arrival (see fleetState.eager).
type assignedRouter interface{ readsAssignedOnly() }

type roundRobin struct{ next int }

// NewRoundRobinRouter cycles through replicas in index order, ignoring
// load. A uniform trace spreads within ±1 request per replica.
func NewRoundRobinRouter() Router { return &roundRobin{} }

func (*roundRobin) Name() string { return "round-robin" }

func (rr *roundRobin) reset() { rr.next = 0 }

func (*roundRobin) readsAssignedOnly() {}

func (rr *roundRobin) Route(_ workload.Request, replicas []ReplicaView) int {
	i := rr.next % len(replicas)
	rr.next++
	return i
}

// --- Least outstanding tokens ---

type leastOutstanding struct{}

// NewLeastOutstandingRouter picks the replica with the fewest assigned
// tokens, ties to the lowest index. This is the cluster default and
// reproduces the pre-Router Cluster.Run assignment exactly (guarded by a
// regression test).
func NewLeastOutstandingRouter() Router { return leastOutstanding{} }

func (leastOutstanding) Name() string { return "least-outstanding" }

func (leastOutstanding) readsAssignedOnly() {}

func (leastOutstanding) Route(_ workload.Request, replicas []ReplicaView) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].OutstandingTokens < replicas[best].OutstandingTokens {
			best = i
		}
	}
	return best
}

// --- Join shortest KV ---

type joinShortestKV struct{}

// NewJoinShortestKVRouter picks the replica with the most free simulated
// KV tokens, ties to the lowest index. On homogeneous fleets it degrades
// to least-outstanding; on heterogeneous fleets it weights placement by
// each replica's actual KV budget, steering work toward replicas with
// memory headroom instead of merely short queues.
func NewJoinShortestKVRouter() Router { return joinShortestKV{} }

func (joinShortestKV) Name() string { return "join-shortest-kv" }

func (joinShortestKV) readsAssignedOnly() {}

func (joinShortestKV) Route(_ workload.Request, replicas []ReplicaView) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].FreeKVTokens > replicas[best].FreeKVTokens {
			best = i
		}
	}
	return best
}

// --- Live least loaded ---

type liveLeastLoaded struct{}

// NewLiveLeastLoadedRouter picks the replica with the fewest live
// tokens — work assigned and not yet completed — ties to the lowest
// index, so it rebalances on actual queue depth over a long trace.
func NewLiveLeastLoadedRouter() Router { return liveLeastLoaded{} }

func (liveLeastLoaded) Name() string { return "live-least-loaded" }

func (liveLeastLoaded) Route(_ workload.Request, replicas []ReplicaView) int {
	// Prefer replicas whose breaker allows traffic; when every breaker is
	// open the request has to land somewhere, so fall back to all. With
	// breakers disabled every view has BreakerOpen false and this is the
	// legacy scan exactly.
	best := -1
	for i, v := range replicas {
		if v.BreakerOpen {
			continue
		}
		if best < 0 || v.LiveTokens < replicas[best].LiveTokens {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].LiveTokens < replicas[best].LiveTokens {
			best = i
		}
	}
	return best
}

// --- Session/prefix affinity ---

type affinity struct{ fallback Router }

// NewAffinityRouter maps the request's Session key to a replica by
// rendezvous (highest-random-weight) hashing over replica names, so
// all requests of one multi-turn session land on the same replica — the
// replica holding that session's prefix cache, which is what agentic
// traffic wants. Because each (session, replica-name) pair hashes
// independently, sessions stay sticky across autoscale events: adding a
// replica moves only the sessions that now rank it highest, and removing
// one remaps only the sessions that lived on it (regression-tested) —
// unlike the old hash-mod-fleet-size mapping, which reshuffled nearly
// every session whenever the fleet size changed. Sessionless requests
// (empty Session, e.g. one-shot batch jobs) fall back to
// least-outstanding placement instead of piling onto one hash bucket.
// Replicas sharing a name hash identically; ties break to the lowest
// index, so placement stays deterministic even then.
func NewAffinityRouter() Router { return affinity{fallback: NewLeastOutstandingRouter()} }

func (affinity) Name() string { return "affinity" }

func (affinity) readsAssignedOnly() {}

func (a affinity) Route(r workload.Request, replicas []ReplicaView) int {
	if r.Session == "" {
		return a.fallback.Route(r, replicas)
	}
	session := fnvHash(r.Session)
	best, bestScore := 0, uint64(0)
	for i, rep := range replicas {
		if s := rendezvousScore(session, rep.Name); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// rendezvousScore ranks a replica for a session key. Raw FNV over the
// concatenated strings ranks near-identical replica names (…replica0,
// …replica1) in a correlated order — a couple of replicas win almost
// every session — so the combined hash is passed through a
// splitmix64-style finalizer for full avalanche.
func rendezvousScore(sessionHash uint64, replica string) uint64 {
	x := sessionHash ^ fnvHash(replica)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- Cache-aware (join-shortest-kv with an expected-hit credit) ---

type cacheAware struct {
	last map[string]string // cache key → name of the replica it last served
}

// NewCacheAwareRouter extends join-shortest-kv with an expected-hit
// credit: the replica that last served a request's cache key (session,
// else prompt key) scores as if it had the request's prompt tokens of
// extra free KV — an expected prefix hit skips recomputing that prefix,
// so the replica is effectively that much less loaded. Keyless requests
// score exactly like join-shortest-kv. Unlike affinity's hash mapping,
// the credit is weighed against real load: a hot replica loses the
// session once its KV deficit outgrows the prompt-sized credit, trading
// a cold prefix for load balance. Placement state keys replica names,
// so it survives autoscale renumbering.
func NewCacheAwareRouter() Router { return &cacheAware{last: map[string]string{}} }

func (*cacheAware) Name() string { return "cache-aware" }

func (c *cacheAware) reset() { clear(c.last) }

func (*cacheAware) readsAssignedOnly() {}

func (c *cacheAware) Route(r workload.Request, replicas []ReplicaView) int {
	key := r.CacheKey()
	var home string
	if key != "" {
		home = c.last[key]
	}
	best, bestScore := 0, 0
	for i, rep := range replicas {
		score := rep.FreeKVTokens
		if home != "" && rep.Name == home {
			score += r.InputTokens
		}
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	if key != "" {
		c.last[key] = replicas[best].Name
	}
	return best
}

// builtin is one named built-in policy constructor.
type builtin[T any] struct {
	name string
	make func() T
}

// registry is a table of named built-in policies (routers, autoscalers,
// geo routers): the exported name list and the by-name constructor of
// each kind both derive from it, so a new policy is added in one place.
type registry[T any] []builtin[T]

// names lists the policies in table (presentation) order.
func (r registry[T]) names() []string {
	names := make([]string, len(r))
	for i, b := range r {
		names[i] = b.name
	}
	return names
}

// lookup returns a fresh instance of the named policy, or an error
// naming the kind and every known name.
func (r registry[T]) lookup(kind, name string) (T, error) {
	for _, b := range r {
		if b.name == name {
			return b.make(), nil
		}
	}
	var none T
	return none, fmt.Errorf("serve: unknown %s %q (have %v)", kind, name, r.names())
}

var builtinRouters = registry[Router]{
	{"round-robin", NewRoundRobinRouter},
	{"least-outstanding", NewLeastOutstandingRouter},
	{"live-least-loaded", NewLiveLeastLoadedRouter},
	{"join-shortest-kv", NewJoinShortestKVRouter},
	{"affinity", NewAffinityRouter},
	{"cache-aware", NewCacheAwareRouter},
}

// RouterNames lists the built-in policies in presentation order.
var RouterNames = builtinRouters.names()

// NewRouter returns a fresh instance of a built-in policy by name.
// "cloud-overflow" also resolves here but stays out of RouterNames: it
// only differs from its inner policy when a cloud tier is attached, so
// sweeps over RouterNames on cloudless fleets would just duplicate
// live-least-loaded rows.
func NewRouter(name string) (Router, error) {
	if name == "cloud-overflow" {
		return NewCloudOverflowRouter(), nil
	}
	return builtinRouters.lookup("router", name)
}

// HeteroCluster builds a fleet from explicitly different replica configs
// (heterogeneous parallelism, stacks, or models sharing a fleet), routed
// by the cluster's Router like any other cluster.
func HeteroCluster(name string, cfgs ...Config) Cluster {
	configs := make([]Config, len(cfgs))
	for i, c := range cfgs {
		if c.Name == "" {
			c.Name = fmt.Sprintf("%s-replica%d", name, i)
		}
		configs[i] = c
	}
	return Cluster{Name: name, Configs: configs}
}
