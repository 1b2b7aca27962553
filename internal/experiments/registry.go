package experiments

// This file is the per-experiment index: every entry point of the
// package registers itself as an internal/scenario Scenario at init,
// which is what `simctl list` shows and `simctl run` executes. Adding
// an experiment is one function plus one Register call here — no new
// binary, no hand-rolled flags. Bespoke knobs (geo-serving's cold
// starts, cluster-routing's replica counts, ...) are declared typed
// params, parsed and validated by the registry.
//
// Every scenario's output is a deterministic function of its params,
// -quick and -seed: none measures wall clock, so each BENCH_<scenario>.json
// is a golden file (`make golden`). The simulator's own speed is measured
// by the repo benchmark (bench/) and `make perfbench`.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
)

// modelParam is the shared model axis of the per-model figures.
var modelParam = scenario.Param{
	Name: "model", Kind: scenario.String, Default: "Llama-70B",
	Help: "model config (Llama-70B, Qwen-32B, Llama-17B-16E, Qwen-30B-A3B)",
}

// one wraps a single-table experiment as a scenario Run emitting one
// section under the given name.
func one(section string, f func(Env, scenario.Values) (*stats.Table, error)) func(scenario.Env, scenario.Values) ([]stats.Section, error) {
	return func(se scenario.Env, v scenario.Values) ([]stats.Section, error) {
		tab, err := f(Env(se), v)
		if err != nil {
			return nil, err
		}
		return []stats.Section{{Name: section, Table: tab}}, nil
	}
}

// withModel resolves the model param before running f.
func withModel(f func(Env, model.Config, scenario.Values) (*stats.Table, error)) func(Env, scenario.Values) (*stats.Table, error) {
	return func(e Env, v scenario.Values) (*stats.Table, error) {
		m, err := model.ByName(v.String("model"))
		if err != nil {
			return nil, err
		}
		return f(e, m, v)
	}
}

func init() {
	// --- Paper figures and tables ---
	scenario.Register(scenario.Scenario{
		Name:    "fig12",
		Summary: "Figure 1/12: min latency and peak throughput per system (4k/250)",
		Params:  []scenario.Param{modelParam},
		Run: one("fig12", withModel(func(e Env, m model.Config, _ scenario.Values) (*stats.Table, error) {
			return Fig12(e, m)
		})),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig13",
		Summary: "Figure 13: min TTFT/TPOT and peak throughput across 2k-128k contexts",
		Params: []scenario.Param{modelParam,
			{Name: "systems", Kind: scenario.Strings, Default: nil,
				Help: "systems to sweep (subset of DP,TP,SP,Shift; default all)"}},
		Run: one("fig13", withModel(func(e Env, m model.Config, v scenario.Values) (*stats.Table, error) {
			systems := v.StringList("systems")
			for _, s := range systems {
				if !slices.Contains(Order, s) {
					return nil, fmt.Errorf("unknown system %q (want one of %v)", s, Order)
				}
			}
			return Fig13(e, m, systems)
		})),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig14",
		Summary: "Figure 14: completion time vs Poisson arrival rate (8k/250)",
		Params: []scenario.Param{modelParam,
			{Name: "rates", Kind: scenario.Floats, Default: nil,
				Help: "arrival rates in req/s (default: the paper's sweep)"}},
		Run: one("fig14", withModel(func(e Env, m model.Config, v scenario.Values) (*stats.Table, error) {
			for _, r := range v.FloatList("rates") {
				if r <= 0 {
					return nil, fmt.Errorf("arrival rate %v must be positive", r)
				}
			}
			return Fig14(e, m, v.FloatList("rates"))
		})),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig17",
		Summary: "Figure 17: peak throughput and min latency for all four models x contexts",
		Run: one("fig17", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return Fig17(e)
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "table1",
		Summary: "Table 1: qualitative latency/throughput tradeoff grades per system",
		Params:  []scenario.Param{modelParam},
		Run: one("table1", withModel(func(e Env, m model.Config, _ scenario.Values) (*stats.Table, error) {
			return Table1(e, m)
		})),
	})
	scenario.Register(scenario.Scenario{
		Name:    "table2",
		Summary: "Table 2: measured collective wire bytes vs the closed-form complexities",
		Run: one("table2", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return Table2(e)
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "table3",
		Summary: "Table 3: optimal static parallelism per (metric, traffic) cell",
		Params:  []scenario.Param{modelParam},
		Run: one("table3", withModel(func(e Env, m model.Config, _ scenario.Values) (*stats.Table, error) {
			return Table3(e, m)
		})),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig7-table5",
		Summary: "Figure 7 / Table 5: bursty synthetic workload on DP/TP/Shift",
		Params: []scenario.Param{
			{Name: "series", Kind: scenario.Bool, Default: false,
				Help: "add the throughput-over-time series section"},
			{Name: "bucket", Kind: scenario.Duration, Default: 10 * time.Second,
				Help: "series bucket width"},
		},
		Run: func(se scenario.Env, v scenario.Values) ([]stats.Section, error) {
			if b := v.Duration("bucket"); b <= 0 {
				return nil, fmt.Errorf("series bucket %v must be positive", b)
			}
			tab, series, _, err := Fig7Table5(Env(se), v.Duration("bucket"))
			if err != nil {
				return nil, err
			}
			sections := []stats.Section{{Name: "fig7-table5", Table: tab}}
			if v.Bool("series") {
				sections = append(sections, stats.Section{Name: "throughput-series", Table: series})
			}
			return sections, nil
		},
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig8",
		Summary: "Figure 8: production trace twin characteristics (Azure Code, Mooncake)",
		Run: one("fig8", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return Fig8(e)
		}),
	})
	replayParams := []scenario.Param{
		{Name: "percurve", Kind: scenario.Bool, Default: false,
			Help: "add the Figure 11 percentile-curve section"},
		{Name: "requests", Kind: scenario.Bool, Default: false,
			Help: "add the per-request metrics section (Figures 9/10 raw data; thousands of rows at full scale)"},
	}
	replayRun := func(section string, f func(Env) (*stats.Table, map[string]*serve.Result, error)) func(scenario.Env, scenario.Values) ([]stats.Section, error) {
		return func(se scenario.Env, v scenario.Values) ([]stats.Section, error) {
			tab, results, err := f(Env(se))
			if err != nil {
				return nil, err
			}
			sections := []stats.Section{{Name: section, Table: tab}}
			if v.Bool("percurve") {
				sections = append(sections, stats.Section{Name: "percentile-curves", Table: Fig11(results)})
			}
			if v.Bool("requests") {
				sections = append(sections, stats.Section{Name: "per-request", Table: perRequestTable(results)})
			}
			return sections, nil
		}
	}
	scenario.Register(scenario.Scenario{
		Name:    "fig9-azure",
		Summary: "Figures 9/11a: Azure LLM Code twin replay on Llama-70B",
		Params:  replayParams,
		Run:     replayRun("fig9-azure", Fig9Azure),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig10-mooncake",
		Summary: "Figures 10/11b: Mooncake conversation twin on Qwen-32B (FP8 KV)",
		Params:  replayParams,
		Run:     replayRun("fig10-mooncake", Fig10Mooncake),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig15",
		Summary: "Figure 15: cost breakdown into GEMM/attention/collectives/overhead",
		Params: []scenario.Param{modelParam,
			{Name: "h200", Kind: scenario.Bool, Default: false,
				Help: "use the 8xH200 node instead of the paper's 8xH100"}},
		Run: one("fig15", withModel(func(e Env, m model.Config, v scenario.Values) (*stats.Table, error) {
			if !v.Bool("h200") {
				e.Node = hw.H100Node() // the paper runs Figure 15 on 8xH100
			}
			return Fig15(e, m)
		})),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fig16",
		Summary: "Figure 16: production stack (SwiftKV + spec decode) vs baseline deployments",
		Run: one("fig16", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return Fig16(e)
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "eq1",
		Summary: "Eq. 1: shift-model weight overhead across base configurations",
		Run: one("eq1", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return Eq1(e), nil
		}),
	})

	// --- Design-decision ablations and paper future work ---
	scenario.Register(scenario.Scenario{
		Name:    "ablation-threshold",
		Summary: "Ablation D1: Algorithm 2's shift threshold sweep",
		Params: []scenario.Param{{Name: "thresholds", Kind: scenario.Ints, Default: nil,
			Help: "shift thresholds in tokens (default: the DESIGN.md sweep)"}},
		Run: one("ablation-threshold", func(e Env, v scenario.Values) (*stats.Table, error) {
			return AblationThreshold(e, v.IntList("thresholds"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "ablation-chunk-budget",
		Summary: "Ablation D4: chunked-prefill token budget sweep",
		Params: []scenario.Param{{Name: "budgets", Kind: scenario.Ints, Default: nil,
			Help: "chunk budgets in tokens (default: the DESIGN.md sweep)"}},
		Run: one("ablation-chunk-budget", func(e Env, v scenario.Values) (*stats.Table, error) {
			return AblationChunkBudget(e, v.IntList("budgets"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "ablation-memory-strategy",
		Summary: "Ablation D2: separate shift models vs on-the-fly weight slicing",
		Run: one("ablation-memory-strategy", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return AblationMemoryStrategy(e)
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "ablation-dp-lockstep",
		Summary: "Ablation: vLLM DP lockstep stepping vs independent replicas",
		Run: one("ablation-dp-lockstep", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return AblationDPLockstep(e)
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "ablation-prefix-cache",
		Summary: "Ablation: prefix-cache hit rates on the agentic Azure twin",
		Params: []scenario.Param{{Name: "hitrates", Kind: scenario.Floats, Default: nil,
			Help: "prefix-cache hit rates in [0,1] (default 0,0.3,0.6,0.9)"}},
		Run: one("ablation-prefix-cache", func(e Env, v scenario.Values) (*stats.Table, error) {
			return AblationPrefixCache(e, v.FloatList("hitrates"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "extension-ep",
		Summary: "Paper future work: SP composed with expert parallelism on the MoE models",
		Run: one("extension-ep", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return ExtensionEP(e)
		}),
	})

	// --- Roadmap extension scenarios (fleet, geo) ---
	scenario.Register(scenario.Scenario{
		Name:    "cluster-routing",
		Summary: "Router policies x replica counts on SLO'd mixed chat+batch traffic",
		Params: []scenario.Param{{Name: "replicas", Kind: scenario.Ints, Default: nil,
			Help: "replica counts to sweep (default 4,8; quick 2,4)"}},
		Run: one("cluster-routing", func(e Env, v scenario.Values) (*stats.Table, error) {
			for _, n := range v.IntList("replicas") {
				if n <= 0 {
					return nil, fmt.Errorf("replica count %d must be positive", n)
				}
			}
			return ClusterRouting(e, v.IntList("replicas"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "hetero-routing",
		Summary: "Router policies on a heterogeneous 4x1-GPU + 2x2-GPU fleet",
		Run: one("hetero-routing", func(e Env, _ scenario.Values) (*stats.Table, error) {
			return HeteroRouting(e)
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "autoscaling",
		Summary: "Autoscaler policies x cold starts on the bursty trace vs static fleets",
		Params: []scenario.Param{{Name: "coldstarts", Kind: scenario.Durations, Default: nil,
			Help: "cold-start penalties (default 0s,15s,60s; quick drops 60s)"}},
		Run: one("autoscaling", func(e Env, v scenario.Values) (*stats.Table, error) {
			return Autoscaling(e, v.DurationList("coldstarts"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "fleet-timeline",
		Summary: "Per-interval fleet size vs queue depth for one autoscaler policy",
		Params: []scenario.Param{
			{Name: "policy", Kind: scenario.String, Default: "queue-depth",
				Help: "autoscaler policy (see serve.AutoscalerNames)"},
			{Name: "coldstart", Kind: scenario.Duration, Default: 15 * time.Second,
				Help: "cold-start penalty"},
		},
		Run: one("fleet-timeline", func(e Env, v scenario.Values) (*stats.Table, error) {
			return FleetTimeline(e, v.String("policy"), v.Duration("coldstart"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "failure-recovery",
		Summary: "Fault plans x autoscaler policies: attainment through the recovery window",
		Params: []scenario.Param{
			{Name: "plans", Kind: scenario.Strings, Default: nil,
				Help: "fault plans to sweep (subset of none,crash-restart,crash-dead,degraded; default all)"},
			{Name: "window", Kind: scenario.Duration, Default: 90 * time.Second,
				Help: "recovery window measured from the crash time"},
		},
		Run: one("failure-recovery", func(e Env, v scenario.Values) (*stats.Table, error) {
			if w := v.Duration("window"); w <= 0 {
				return nil, fmt.Errorf("recovery window %v must be positive", w)
			}
			return FailureRecovery(e, v.StringList("plans"), v.Duration("window"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "admission-control",
		Summary: "Admission policies under an overload burst: goodput and attainment vs shed fraction",
		Params: []scenario.Param{{Name: "policies", Kind: scenario.Strings, Default: nil,
			Help: "admission policies to sweep (subset of none,deadline-infeasible,projected-attainment,shed-or-buy; default all)"}},
		Run: one("admission-control", func(e Env, v scenario.Values) (*stats.Table, error) {
			for _, p := range v.StringList("policies") {
				if !slices.Contains(serve.AdmissionPolicyNames, p) {
					return nil, fmt.Errorf("unknown admission policy %q (want one of %v)", p, serve.AdmissionPolicyNames)
				}
			}
			return AdmissionControl(e, v.StringList("policies"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "retry-storm",
		Summary: "Mass-crash recovery: immediate retries vs backoff vs backoff+budget",
		Params: []scenario.Param{
			{Name: "modes", Kind: scenario.Strings, Default: nil,
				Help: "retry disciplines to sweep (subset of immediate,backoff,backoff-budget; default all)"},
			{Name: "window", Kind: scenario.Duration, Default: 60 * time.Second,
				Help: "recovery window measured from the mass-crash time"},
		},
		Run: one("retry-storm", func(e Env, v scenario.Values) (*stats.Table, error) {
			if w := v.Duration("window"); w <= 0 {
				return nil, fmt.Errorf("recovery window %v must be positive", w)
			}
			return RetryStorm(e, v.StringList("modes"), v.Duration("window"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "cost-tiered",
		Summary: "Own the Nth replica vs rent cloud overflow: burst x price attainment-per-dollar",
		Params: []scenario.Param{
			{Name: "bursts", Kind: scenario.Floats, Default: nil,
				Help: "burst multipliers over the calibrated overload burst (default 0.05,0.1,1,4; quick 0.1,1,4)"},
			{Name: "prices", Kind: scenario.Floats, Default: nil,
				Help: "cloud prices in $/Mtoken (default 1,20)"},
			{Name: "fleet", Kind: scenario.Int, Default: 8,
				Help: "owned fleet size; rent cells own one fewer plus the cloud"},
			{Name: "replicahour", Kind: scenario.Float, Default: 3.0,
				Help: "owned replica price in $/hour"},
		},
		Run: one("cost-tiered", func(e Env, v scenario.Values) (*stats.Table, error) {
			if h := v.Float("replicahour"); h <= 0 {
				return nil, fmt.Errorf("replica price %v $/hour must be positive", h)
			}
			return CostTiered(e, v.FloatList("bursts"), v.FloatList("prices"),
				v.Int("fleet"), v.Float("replicahour"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "shed-spill-buy",
		Summary: "Overload escape hatches side by side: shed vs cloud spill vs shed-or-buy",
		Params: []scenario.Param{
			{Name: "modes", Kind: scenario.Strings, Default: nil,
				Help: "escape hatches to sweep (subset of none,shed,spill,buy; default all)"},
			{Name: "price", Kind: scenario.Float, Default: 20.0,
				Help: "cloud price in $/Mtoken"},
			{Name: "budget", Kind: scenario.Float, Default: 0.0,
				Help: "cloud budget in dollars (0 = unlimited)"},
		},
		Run: one("shed-spill-buy", func(e Env, v scenario.Values) (*stats.Table, error) {
			return ShedSpillBuy(e, v.StringList("modes"), v.Float("price"), v.Float("budget"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "cache-measured",
		Summary: "Measured per-replica prefix cache: routing policies vs the assumed-rate baseline",
		Params: []scenario.Param{
			{Name: "share", Kind: scenario.Float, Default: 0.6,
				Help: "prefix fraction served from cache on a hit (the assumed-rate ceiling)"},
			{Name: "routers", Kind: scenario.Strings, Default: nil,
				Help: "router policies to sweep (default least-outstanding,round-robin,affinity,cache-aware)"},
		},
		Run: func(se scenario.Env, v scenario.Values) ([]stats.Section, error) {
			return CacheMeasured(Env(se), v.Float("share"), v.StringList("routers"))
		},
	})
	scenario.Register(scenario.Scenario{
		Name:    "shared-cache-tier",
		Summary: "Fleet-level shared cache: repeated-prompt fraction x shared-cache answer latency",
		Params: []scenario.Param{
			{Name: "repeats", Kind: scenario.Floats, Default: nil,
				Help: "repeated-prompt fractions to sweep (default 0,0.25,0.5,0.75; quick 0,0.5)"},
			{Name: "latencies", Kind: scenario.Durations, Default: nil,
				Help: "shared-cache answer latencies to sweep (default 5ms,50ms)"},
		},
		Run: func(se scenario.Env, v scenario.Values) ([]stats.Section, error) {
			return SharedCacheTier(Env(se), v.FloatList("repeats"), v.DurationList("latencies"))
		},
	})
	scenario.Register(scenario.Scenario{
		Name:    "outage-spillover",
		Summary: "Geo policies with the home region dark: the remote-salvage break-even",
		Params: []scenario.Param{{Name: "outage", Kind: scenario.Duration, Default: 60 * time.Second,
			Help: "outage length; the window opens just before the midpoint burst"}},
		Run: one("outage-spillover", func(e Env, v scenario.Values) (*stats.Table, error) {
			if o := v.Duration("outage"); o <= 0 {
				return nil, fmt.Errorf("outage length %v must be positive", o)
			}
			return OutageSpillover(e, v.Duration("outage"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "geo-serving",
		Summary: "Geo routing policies x topologies x cold starts vs a single-region baseline",
		Params: []scenario.Param{{Name: "coldstarts", Kind: scenario.Durations, Default: nil,
			Help: "cold-start penalties (default 0s,15s,60s; quick drops 60s)"}},
		Run: one("geo-serving", func(e Env, v scenario.Values) (*stats.Table, error) {
			return GeoServing(e, v.DurationList("coldstarts"))
		}),
	})
	scenario.Register(scenario.Scenario{
		Name:    "geo-region-breakdown",
		Summary: "Per-region origin/served/spill flows behind one geo sweep cell",
		Params: []scenario.Param{
			{Name: "policy", Kind: scenario.String, Default: "spill-over",
				Help: "geo routing policy (see serve.GeoRouterNames)"},
			{Name: "coldstart", Kind: scenario.Duration, Default: 60 * time.Second,
				Help: "cold-start penalty"},
		},
		Run: one("geo-region-breakdown", func(e Env, v scenario.Values) (*stats.Table, error) {
			return GeoRegionBreakdown(e, v.String("policy"), v.Duration("coldstart"))
		}),
	})
}

// perRequestTable renders per-request metrics for every system of a
// trace replay — the raw data behind Figures 9/10 (the old tracereplay
// -requests CSV), opt-in via -p requests=true because full-scale traces
// make it thousands of rows.
func perRequestTable(results map[string]*serve.Result) *stats.Table {
	tab := stats.NewTable("System", "Request", "Arrival ms", "Input", "Output",
		"TTFT ms", "TPOT ms", "Completion ms", "Rejected")
	for _, name := range Order {
		res, ok := results[name]
		if !ok {
			continue
		}
		for _, m := range res.PerRequest {
			tab.AddRow(name, m.ID, ms(m.Arrival), m.InputTokens, m.OutputTokens,
				ms(m.TTFT), ms(m.TPOT), ms(m.Completion), fmt.Sprintf("%v", m.Rejected))
		}
	}
	return tab
}
