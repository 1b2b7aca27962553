package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the cost-tiered serving scenario pair. cost-tiered asks
// the ownership question head-on: at what burst intensity does owning
// the Nth replica beat renting elastic cloud overflow? Each sweep cell
// replays a burst-scaled overload trace on either the full owned fleet
// or a one-smaller fleet backed by the pay-per-token cloud tier, and
// the attainment-per-dollar column decides the row. shed-spill-buy
// re-runs the PR 9 overload cell with all three escape hatches side by
// side: shed the doomed waiters, spill them to the cloud at routing
// time, or buy them out of the admission queue.

// costTierReplicaHour is the default owned-replica price used by both
// scenarios' TotalSpend ledger (a round on-demand H100-class figure).
const costTierReplicaHour = 3.0

// costTierCloud is the shared elastic-backend shape: first token in
// 1 s (remote queue + network + a stranger's prefill), streaming at
// 15 ms/token, a 25k tok/s provider rate limit. Price and budget vary
// per sweep cell. The 1 s base keeps the break-even honest: overflow
// fires on real local queues, not on a replica with one request in
// flight.
func costTierCloud(price, budget float64) *serve.CloudConfig {
	return &serve.CloudConfig{
		BaseLatency:           time.Second,
		PerToken:              15 * time.Millisecond,
		PricePerMToken:        price,
		RateLimit:             25000,
		MaxSpend:              budget,
		DollarsPerReplicaHour: costTierReplicaHour,
	}
}

// costTierTrace scales the overload workload to an owned fleet of the
// given size: steady interactive traffic at half the fleet's serving
// rate, plus the 20-second midpoint burst multiplied by factor. Factor
// 1 doubles the fleet's capacity during the burst window (the PR 9
// calibration); factor 4 is a flash crowd no fixed fleet absorbs.
func costTierTrace(e Env, fleet int, factor float64) *workload.Trace {
	dur := overloadDur(e)
	rng := rngFor(e, 0x0c057157ed)
	size := workload.LognormalSize{
		MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
		MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16,
	}
	perFleet := float64(fleet) / 2
	// Steady sits at ~quarter utilization so the burst, not the baseline,
	// decides whether the fleet queues: the low-factor cells must leave
	// the cloud genuinely idle for the rent-vs-own comparison to bite.
	steady := workload.Poisson("cost-steady", rng, perFleet/2, dur, size, "interactive")
	burstN := int(150 * dur.Seconds() / 90 * perFleet * factor)
	burst := workload.Burst("cost-burst", rng, burstN,
		time.Duration(0.4*float64(dur)), 20*time.Second, size, "interactive")
	tr := workload.Merge("cost-tiered", steady, burst)
	tr.Stamp("interactive", 1, interactiveSLO)
	return tr
}

// CostTiered sweeps burst intensity x cloud price over two deployments
// per cell: "own-N" (the full fleet, no cloud) and "rent" (one replica
// fewer plus the elastic backend under the cloud-overflow router). The
// Att %/$ column is the decision metric: attainment percentage per
// total dollar spent. Renting wins while the cloud sits idle — the
// saved replica-hours are pure margin — and loses once the burst makes
// the tier serve real token volume at API prices; the crossover row is
// the ownership break-even the autoscaler economics need.
func CostTiered(e Env, bursts, prices []float64, fleet int, replicaHour float64) (*stats.Table, error) {
	if fleet < 2 {
		return nil, fmt.Errorf("fleet %d must be at least 2 (rent cells own one fewer)", fleet)
	}
	if replicaHour <= 0 {
		replicaHour = costTierReplicaHour
	}
	if len(bursts) == 0 {
		// 0.05 is the rare-blip regime the fleet nearly absorbs locally
		// (the cloud serves a token trickle and renting pockets the Nth
		// replica's hours), 0.1 sits at the full-scale break-even, 1
		// doubles burst-window capacity (the overload scenarios'
		// calibration), 4 is a flash crowd. The quick axis keeps 0.1 as
		// its low point: at the shorter trace the idle regime is less
		// diluted and renting already wins there.
		bursts = []float64{0.05, 0.1, 1, 4}
		if e.Quick {
			bursts = []float64{0.1, 1, 4}
		}
	}
	for _, b := range bursts {
		if b <= 0 {
			return nil, fmt.Errorf("burst factor %v must be positive", b)
		}
	}
	if len(prices) == 0 {
		// $1/Mtoken is commodity Llama-70B serverless pricing; $20 is the
		// premium-model rate at which renting never pays.
		prices = []float64{1, 20}
	}
	for _, p := range prices {
		if p <= 0 {
			return nil, fmt.Errorf("cloud price %v $/Mtoken must be positive", p)
		}
	}
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	// Per burst: the owned fleet, then one rent cell per cloud price
	// (price 0 marks the owned cell).
	type axis struct{ burst, price float64 }
	var axes []axis
	var cells []cell
	cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16}
	for _, b := range bursts {
		tr := costTierTrace(e, fleet, b)
		for _, price := range append([]float64{0}, prices...) {
			var cl serve.Cluster
			if price == 0 {
				cl = serve.DPCluster(fmt.Sprintf("own-%d", fleet), cfg, fleet)
				cl.Router = serve.NewLiveLeastLoadedRouter()
			} else {
				cl = serve.DPCluster(fmt.Sprintf("rent-%d", fleet-1), cfg, fleet-1)
				cl.Router = serve.NewCloudOverflowRouter()
				cl.Cloud = costTierCloud(price, 0)
				cl.Cloud.DollarsPerReplicaHour = replicaHour
			}
			axes = append(axes, axis{b, price})
			cells = append(cells, cell{name: fmt.Sprintf("burst %v price %v", b, price), sys: cl, trace: tr})
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Deployment", "Burst x", "$/Mtok", "TTFT-SLO %",
		"CloudReq", "CloudTok", "Cloud $", "Owned $", "Total $", "Att %/$", "p99 TTFT ms")
	for i, c := range axes {
		res := results[i]
		att := attainment(res, "interactive")
		// Owned cells have no cloud tier: price the fleet by hand so the
		// spend ledger is comparable across the row pair.
		owned, total := res.OwnedSpend, res.TotalSpend
		if c.price == 0 {
			owned = replicaHour / 3600 * res.ReplicaSeconds
			total = owned
		}
		attPerDollar := 0.0
		if total > 0 {
			attPerDollar = 100 * att.TTFTRate() / total
		}
		name, price := fmt.Sprintf("own-%d", fleet), "-"
		if c.price > 0 {
			name = fmt.Sprintf("rent-%d", fleet-1)
			price = fmt.Sprintf("%g", c.price)
		}
		ttft := classTTFT(res, "interactive")
		tab.AddRow(name, c.burst, price, 100*att.TTFTRate(),
			res.CloudRequests, res.CloudTokens, res.CloudSpend, owned, total,
			attPerDollar, ttft.P99())
	}
	return tab, nil
}

// shedSpillBuyModes lists the escape-hatch axis in presentation order.
var shedSpillBuyModes = []string{"none", "shed", "spill", "buy"}

// ShedSpillBuy replays the PR 9 overload cell — two replicas, bounded
// batch, one sustained burst — under each escape hatch: "none" queues
// everything and misses, "shed" rejects the doomed waiters
// (deadline-infeasible admission), "spill" diverts at routing time when
// the local wait beats the cloud's latency, and "buy" offloads the
// doomed waiters to the cloud from the admission queue. Goodput-per-
// dollar weighs each hatch's served tokens against what the run cost.
func ShedSpillBuy(e Env, modes []string, price, budget float64) (*stats.Table, error) {
	if len(modes) == 0 {
		modes = shedSpillBuyModes
	}
	if price <= 0 {
		return nil, fmt.Errorf("cloud price %v $/Mtoken must be positive", price)
	}
	if budget < 0 {
		return nil, fmt.Errorf("cloud budget %v must be non-negative", budget)
	}
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	tr := overloadTrace(e)
	cells := make([]cell, len(modes))
	for i, mode := range modes {
		cfg := serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 16}
		cl := serve.DPCluster("hatch-"+mode, cfg, 2)
		cl.Router = serve.NewLiveLeastLoadedRouter()
		switch mode {
		case "none":
		case "shed":
			cfg.Admission = &serve.AdmissionConfig{Policy: serve.AdmissionDeadline}
		case "spill":
			cl.Router = serve.NewCloudOverflowRouter()
			cl.Cloud = costTierCloud(price, budget)
		case "buy":
			cfg.Admission = &serve.AdmissionConfig{Policy: serve.AdmissionShedOrBuy}
			cl.Cloud = costTierCloud(price, budget)
		default:
			return nil, fmt.Errorf("unknown mode %q (want one of %v)", mode, shedSpillBuyModes)
		}
		for j := range cl.Configs {
			cl.Configs[j].Admission = cfg.Admission
		}
		cells[i] = cell{name: mode, sys: cl, trace: tr}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Mode", "TTFT-SLO %", "Served TTFT-SLO %", "Shed",
		"CloudReq", "Cloud $", "Total $", "Goodput tok/s", "Ktok/$", "p99 TTFT ms")
	for i, res := range results {
		att := attainment(res, "interactive")
		servedRate, goodTok, goodput := served(res, att)
		// Cloudless rows still own two replicas: price them identically so
		// the dollars column compares hatches, not ledger plumbing.
		total := res.TotalSpend
		if total == 0 {
			total = costTierReplicaHour / 3600 * res.ReplicaSeconds
		}
		ktokPerDollar := 0.0
		if total > 0 {
			ktokPerDollar = float64(goodTok) / 1000 / total
		}
		ttft := classTTFT(res, "interactive")
		tab.AddRow(modes[i], 100*att.TTFTRate(), 100*servedRate, res.Shed,
			res.CloudRequests, res.CloudSpend, total, goodput, ktokPerDollar, ttft.P99())
	}
	return tab, nil
}
