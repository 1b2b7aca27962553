package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Interactive and batch SLOs for the mixed-traffic routing scenario:
// chat traffic wants a sub-1.5s first token and smooth streaming; batch
// traffic only cares about eventually finishing within the half-minute.
var (
	interactiveSLO = workload.Deadline(1500*time.Millisecond, 80*time.Millisecond)
	batchSLO       = workload.Deadline(30*time.Second, workload.NoDeadline)
)

// mixedSLOTrace builds the routing scenario's workload: multi-session
// interactive chat traffic (Poisson, priority 2, tight SLO) on top of
// heavyweight batch jobs (grouped arrivals, priority 0, loose SLO). The
// per-session classes ("chat-N") double as affinity keys.
func mixedSLOTrace(e Env, sessions int, dur time.Duration) *workload.Trace {
	chat := make([]*workload.Trace, sessions)
	for i := range chat {
		rng := rngFor(e, 0x5e55+uint64(i))
		chat[i] = workload.Poisson(fmt.Sprintf("chat-%d", i), rng, 1.0, dur,
			workload.LognormalSize{
				MedianIn: 512, SigmaIn: 0.6, MinIn: 64, MaxIn: 4096,
				MedianOut: 128, SigmaOut: 0.5, MinOut: 16, MaxOut: 512,
			}, fmt.Sprintf("chat-%d", i))
		chat[i].Stamp("", 2, interactiveSLO)
		for j := range chat[i].Requests {
			chat[i].Requests[j].Session = fmt.Sprintf("chat-%d", i)
		}
		// Batch jobs stay sessionless: affinity load-balances them.
	}
	batch := workload.BatchedArrivals("batch", rngFor(e, 0xba7c4), 8,
		3*time.Second, dur, workload.FixedSize{In: 4096, Out: 400}, "batch")
	batch.Stamp("", 0, batchSLO)
	return workload.Merge("mixed-slo", append(chat, batch)...)
}

// mixedScenario builds the shared fixtures of both routing sweeps: the
// Llama-70B cost model and the mixed-SLO trace at the env's scale.
func mixedScenario(e Env) (*perf.CostModel, *workload.Trace, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, nil, err
	}
	dur := 60 * time.Second
	sessions := 8
	if e.Quick {
		dur = 15 * time.Second
		sessions = 4
	}
	return cm, mixedSLOTrace(e, sessions, dur), nil
}

// attainment pools per-class SLO attainment over classes sharing a
// prefix (the chat sessions) into one row-able aggregate.
func attainment(res *serve.Result, prefix string) serve.SLOAttainment {
	var sum serve.SLOAttainment
	for class, a := range res.SLOByClass {
		if strings.HasPrefix(class, prefix) {
			sum.Requests += a.Requests
			sum.Rejected += a.Rejected
			sum.TTFTMet += a.TTFTMet
			sum.TPOTMet += a.TPOTMet
		}
	}
	return sum
}

// classTTFT collects the TTFT sample of classes sharing a prefix.
func classTTFT(res *serve.Result, prefix string) *stats.Sample {
	var s stats.Sample
	for _, m := range res.PerRequest {
		if !m.Rejected && strings.HasPrefix(m.Class, prefix) {
			s.AddDuration(m.TTFT)
		}
	}
	return &s
}

// routingFleet is one fleet of a routing sweep, named for its rows.
type routingFleet struct {
	name string
	cl   serve.Cluster
}

// routingSweep replays the trace on every fleet behind every router
// policy, each cell with its own (stateful) router instance, one row per
// cell.
func routingSweep(e Env, tr *workload.Trace, fleets []routingFleet) (*stats.Table, error) {
	var cells []cell
	for _, f := range fleets {
		for _, name := range serve.RouterNames {
			router, err := serve.NewRouter(name)
			if err != nil {
				return nil, err
			}
			cl := f.cl
			cl.Router = router
			cells = append(cells, cell{name: fmt.Sprintf("%s/%s/%s", f.name, cl.Name, name), sys: cl, trace: tr})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Fleet", "Replicas", "Router", "Throughput tok/s",
		"Chat TTFT-SLO %", "Chat TPOT-SLO %", "Batch TTFT-SLO %",
		"Chat p50 TTFT ms", "Chat p99 TTFT ms", "Chat TTFT<1.5s %",
		"SLO preempt", "Rejected")
	for i, res := range results {
		f := fleets[i/len(serve.RouterNames)]
		chat := attainment(res, "chat")
		batch := attainment(res, "batch")
		ttft := classTTFT(res, "chat")
		tab.AddRow(f.name, len(f.cl.Configs), serve.RouterNames[i%len(serve.RouterNames)],
			res.Throughput(),
			100*chat.TTFTRate(), 100*chat.TPOTRate(), 100*batch.TTFTRate(),
			ttft.Median(), ttft.P99(),
			100*ttft.FracBelow(ms(interactiveSLO.TTFT)),
			res.SLOPreemptions, res.Rejected)
	}
	return tab, nil
}

// ClusterRouting is the new figure-style scenario this layer exists for:
// mixed interactive+batch traffic replayed across every router policy ×
// replica count, reporting combined throughput and per-class SLO
// attainment. Replicas are independent single-GPU Llama-70B servers
// (the fleet case routing actually decides).
func ClusterRouting(e Env, replicaCounts []int) (*stats.Table, error) {
	cm, tr, err := mixedScenario(e)
	if err != nil {
		return nil, err
	}
	if len(replicaCounts) == 0 {
		replicaCounts = []int{4, 8}
		if e.Quick {
			replicaCounts = []int{2, 4}
		}
	}
	dpCfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	var fleets []routingFleet
	for _, n := range replicaCounts {
		fleets = append(fleets, routingFleet{"homogeneous", serve.DPCluster(fmt.Sprintf("dp%d", n), dpCfg, n)})
	}
	return routingSweep(e, tr, fleets)
}

// HeteroRouting repeats the routing sweep on a heterogeneous fleet —
// four single-GPU replicas plus two 2-GPU TP replicas of the same model
// (8 GPUs total) — where join-shortest-KV's capacity awareness actually
// differs from queue-length balancing.
func HeteroRouting(e Env) (*stats.Table, error) {
	cm, tr, err := mixedScenario(e)
	if err != nil {
		return nil, err
	}
	small := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	big := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 2}}
	hetero := serve.HeteroCluster("hetero", small, small, small, small, big, big)
	return routingSweep(e, tr, []routingFleet{{"hetero-4x1+2x2", hetero}})
}
