package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cacheRouters is the default router axis of CacheMeasured: the
// load-balancing floor, the spread floor, and the two cache-seeking
// policies whose benefit the measured cache makes visible.
var cacheRouters = []string{"least-outstanding", "round-robin", "affinity", "cache-aware"}

// cacheFleetReplicas fixes the CacheMeasured fleet size: large enough
// that blind balancing scatters sessions (so measured hit rates
// separate the policies), small enough for quick runs.
const cacheFleetReplicas = 4

// CacheMeasured replays the mixed sessioned trace on a DP fleet with
// the measured per-replica prefix cache on, across routing policies.
// With measurement, a session only hits when it lands on the replica
// that served it before — so affinity and cache-aware routing earn
// their hit rate instead of assuming it. The second section compares
// the effective cached-token share against the assumed-rate baseline
// (Config.PrefixCacheHitRate = share, what ablation-prefix-cache
// sweeps): assumed grants every prompt the full share; measured can
// only approach it from below.
func CacheMeasured(e Env, share float64, routers []string) ([]stats.Section, error) {
	if share < 0 || share >= 1 {
		return nil, fmt.Errorf("cache share %v outside [0, 1)", share)
	}
	if len(routers) == 0 {
		routers = cacheRouters
	}
	cm, tr, err := mixedScenario(e)
	if err != nil {
		return nil, err
	}
	dpCfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	totalIn := 0
	for _, r := range tr.Requests {
		totalIn += r.InputTokens
	}

	measuredCfg := dpCfg
	measuredCfg.PrefixCache = &serve.PrefixCacheConfig{ShareFraction: share}
	type mode struct {
		name   string
		router string
		cfg    serve.Config
	}
	// Section 1: the measured cache across routing policies.
	var routed []mode
	for _, r := range routers {
		routed = append(routed, mode{r, r, measuredCfg})
	}
	// Section 2: assumed-rate ceiling vs measured reality. "Eff share %"
	// is the prompt-token fraction actually served from cache — the
	// assumed baseline grants the full share to every prompt by
	// construction, the measured modes approach it from below as routing
	// keeps sessions home.
	modes := []mode{
		{fmt.Sprintf("assumed@%.2f", share), "affinity", func() serve.Config {
			c := dpCfg
			c.PrefixCacheHitRate = share
			return c
		}()},
		{"measured/affinity", "affinity", measuredCfg},
		{"measured/cache-aware", "cache-aware", measuredCfg},
		{"measured/least-outstanding", "least-outstanding", measuredCfg},
		{"no-cache", "affinity", dpCfg},
	}
	// Both sections run as one sweep, each cell behind its own (stateful)
	// router.
	var cells []cell
	for _, m := range append(routed, modes...) {
		router, err := serve.NewRouter(m.router)
		if err != nil {
			return nil, err
		}
		cl := serve.DPCluster("cache", m.cfg, cacheFleetReplicas)
		cl.Router = router
		cells = append(cells, cell{name: m.name, sys: cl, trace: tr})
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	byRouter := stats.NewTable("Router", "Hits", "Misses", "Hit %", "Cached tok",
		"Evictions", "Chat p50 TTFT ms", "Chat p99 TTFT ms", "Throughput tok/s")
	for i, res := range results[:len(routed)] {
		ttft := classTTFT(res, "chat")
		byRouter.AddRow(routers[i], res.CacheHits, res.CacheMisses,
			100*res.MeasuredHitRate(), res.CacheCachedTokens, res.CacheEvictions,
			ttft.Median(), ttft.P99(), res.Throughput())
	}

	vsAssumed := stats.NewTable("Mode", "Eff share %", "Chat p50 TTFT ms",
		"Chat p99 TTFT ms", "p50 Compl ms", "Throughput tok/s")
	for i, res := range results[len(routed):] {
		eff := 100 * share // the assumed baseline's share, by construction
		if modes[i].cfg.PrefixCache != nil {
			eff = 100 * float64(res.CacheCachedTokens) / float64(totalIn)
		} else if modes[i].cfg.PrefixCacheHitRate == 0 {
			eff = 0
		}
		ttft := classTTFT(res, "chat")
		vsAssumed.AddRow(modes[i].name, eff, ttft.Median(), ttft.P99(),
			res.Completion.Median(), res.Throughput())
	}
	return []stats.Section{
		{Name: "CacheMeasuredRouting", Table: byRouter},
		{Name: "CacheAssumedVsMeasured", Table: vsAssumed},
	}, nil
}

// SharedCacheTier sweeps the fleet-level shared cache (rigrun-style:
// repeated prompts answered at the balancer, never reaching an engine)
// over the repeated-prompt fraction x the shared-cache answer latency.
// The workload is the Azure code twin with a deterministic fraction of
// requests stamped as verbatim repeats of a hot-prompt pool; the tier
// absorbs re-asked prompts, shrinking the engine-served load.
func SharedCacheTier(e Env, repeats []float64, latencies []time.Duration) ([]stats.Section, error) {
	if len(repeats) == 0 {
		repeats = []float64{0, 0.25, 0.5, 0.75}
		if e.Quick {
			repeats = []float64{0, 0.5}
		}
	}
	for _, f := range repeats {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("repeat fraction %v outside [0, 1]", f)
		}
	}
	if len(latencies) == 0 {
		latencies = []time.Duration{5 * time.Millisecond, 50 * time.Millisecond}
	}
	for _, l := range latencies {
		if l < 0 {
			return nil, fmt.Errorf("shared-cache latency %v negative", l)
		}
	}
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	base := traceWindow(e, trace.AzureCode(e.Seed), 8)
	dpCfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}

	var cells []cell
	for _, f := range repeats {
		// Each repeat fraction stamps its own copy of the trace.
		reqs := make([]workload.Request, len(base.Requests))
		copy(reqs, base.Requests)
		tr := (&workload.Trace{Name: base.Name, Requests: reqs}).StampPromptKeys(e.Seed, f, 64)
		for _, l := range latencies {
			cl := serve.DPCluster("shared", dpCfg, cacheFleetReplicas)
			cl.SharedCache = &serve.SharedCacheConfig{Latency: l}
			cells = append(cells, cell{name: fmt.Sprintf("repeat=%v/lat=%v", f, l), sys: cl, trace: tr})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Repeat %", "Shared lat ms", "Shared hits", "Shared misses",
		"Shared hit %", "Engine reqs", "p50 TTFT ms", "p99 TTFT ms", "Throughput tok/s")
	for i, res := range results {
		f, l := repeats[i/len(latencies)], latencies[i%len(latencies)]
		tab.AddRow(100*f, ms(l),
			res.SharedHits, res.SharedMisses, 100*res.SharedHitRate(),
			len(res.PerRequest)-res.SharedHits,
			res.TTFT.Median(), res.TTFT.P99(), res.Throughput())
	}
	return []stats.Section{{Name: "SharedCacheTier", Table: tab}}, nil
}
