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

// routingRow appends one (cluster, router) cell's result as a table row.
func routingRow(tab *stats.Table, fleet string, n int, router string, res *serve.Result) {
	chat := attainment(res, "chat")
	batch := attainment(res, "batch")
	ttft := classTTFT(res, "chat")
	tab.AddRow(fleet, n, router,
		res.Throughput(),
		100*chat.TTFTRate(), 100*chat.TPOTRate(), 100*batch.TTFTRate(),
		ttft.Median(), ttft.P99(),
		100*ttft.FracBelow(ms(interactiveSLO.TTFT)),
		res.SLOPreemptions, res.Rejected)
}

// routingCell is one (fleet, router) sweep cell; build constructs the
// cluster (with a fresh router instance — routers are stateful) inside
// the worker so cells share nothing.
type routingCell struct {
	fleet  string
	n      int
	router string
	build  func(router serve.Router) serve.Cluster
	res    *serve.Result
}

// runRoutingCells fans the cells over the worker pool and appends their
// rows in submission order.
func runRoutingCells(e Env, tab *stats.Table, cells []routingCell, tr *workload.Trace) error {
	err := NewPool(e.Workers).Run(len(cells), func(i int) error {
		c := &cells[i]
		router, err := serve.NewRouter(c.router)
		if err != nil {
			return err
		}
		cl := c.build(router)
		res, err := cl.Run(tr)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.fleet, c.router, err)
		}
		c.res = res
		return nil
	})
	if err != nil {
		return err
	}
	for _, c := range cells {
		routingRow(tab, c.fleet, c.n, c.router, c.res)
	}
	return nil
}

func routingTable() *stats.Table {
	return stats.NewTable("Fleet", "Replicas", "Router", "Throughput tok/s",
		"Chat TTFT-SLO %", "Chat TPOT-SLO %", "Batch TTFT-SLO %",
		"Chat p50 TTFT ms", "Chat p99 TTFT ms", "Chat TTFT<1.5s %",
		"SLO preempt", "Rejected")
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
	tab := routingTable()
	dpCfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	var cells []routingCell
	for _, n := range replicaCounts {
		for _, name := range serve.RouterNames {
			cells = append(cells, routingCell{
				fleet: "homogeneous", n: n, router: name,
				build: func(router serve.Router) serve.Cluster {
					cl := serve.DPCluster(fmt.Sprintf("dp%d", n), dpCfg, n)
					cl.Router = router
					return cl
				},
			})
		}
	}
	if err := runRoutingCells(e, tab, cells, tr); err != nil {
		return nil, err
	}
	return tab, nil
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
	heteroCfgs := []serve.Config{small, small, small, small, big, big}
	tab := routingTable()
	var cells []routingCell
	for _, name := range serve.RouterNames {
		cells = append(cells, routingCell{
			fleet: "hetero-4x1+2x2", n: len(heteroCfgs), router: name,
			build: func(router serve.Router) serve.Cluster {
				cl := serve.HeteroCluster("hetero", heteroCfgs...)
				cl.Router = router
				return cl
			},
		})
	}
	if err := runRoutingCells(e, tab, cells, tr); err != nil {
		return nil, err
	}
	return tab, nil
}
