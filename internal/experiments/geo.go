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

// Geo sweep shape: every region starts at the cheap two-replica fleet
// and may grow to eight single-GPU replicas on local queue-depth
// signals; the single-region baseline gets the combined bounds so total
// capacity is comparable.
const (
	geoInitial = 2
	geoMax     = 8
)

// geoTopologies is the sweep's topology axis: transatlantic,
// trans-pacific, and antipodal pairs — RTT at 8%, 23%, and 47% of the
// 1.5 s interactive TTFT budget — all two-region so the baseline
// comparison stays clean (the serve-level property tests cover
// triangles).
func geoTopologies() []serve.Topology {
	return []serve.Topology{
		serve.UniformTopology(120*time.Millisecond, "us-east", "eu-west"),
		serve.UniformTopology(350*time.Millisecond, "us-east", "ap-south"),
		serve.UniformTopology(700*time.Millisecond, "us-east", "ap-sydney"),
	}
}

// geoColdStarts is the sweep's cold-start axis; quick runs drop the
// slowest point.
func geoColdStarts(e Env) []time.Duration {
	if e.Quick {
		return []time.Duration{0, 15 * time.Second}
	}
	return []time.Duration{0, 15 * time.Second, 60 * time.Second}
}

// geoTrace is the two-region workload: the home region serves steady
// interactive traffic plus three sharp regional bursts (a live event, a
// morning rush), while the remote region sees a lighter steady stream —
// the warm spare capacity spill-over routing wants to borrow. Both sides
// carry the interactive TTFT SLO so attainment is measured globally.
func geoTrace(e Env, home, remote string) *workload.Trace {
	dur := 10 * time.Minute
	if e.Quick {
		dur = 3 * time.Minute
	}
	sizes := workload.LognormalSize{
		MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
		MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16,
	}
	parts := []*workload.Trace{
		workload.Poisson("home-steady", rngFor(e, 0x9e01), 1.0, dur, sizes, "interactive").
			StampOrigin("", home),
		workload.Poisson("remote-steady", rngFor(e, 0x9e02), 0.4, dur, sizes, "interactive").
			StampOrigin("", remote),
	}
	// Bursts sized like the Figure 7 workload's batch rushes (~900k
	// tokens in 25 s): each one swamps the home region's initial two
	// replicas for the better part of a minute — exactly the window
	// where remote spare capacity competes with a local cold start.
	burstSizes := workload.LognormalSize{
		MedianIn: 4000, SigmaIn: 0.5, MaxIn: 16000, MinIn: 512,
		MedianOut: 250, SigmaOut: 0.4, MaxOut: 600, MinOut: 32,
	}
	burstN := int(120 * dur.Seconds() / 600)
	for i, frac := range []float64{0.2, 0.5, 0.8} {
		start := time.Duration(frac * float64(dur))
		parts = append(parts, workload.Burst("home-burst", rngFor(e, 0xb0+uint64(i)),
			burstN, start, 25*time.Second, burstSizes, "interactive").StampOrigin("", home))
	}
	tr := workload.Merge("geo-"+home+"-"+remote, parts...)
	tr.Stamp("", 1, interactiveSLO)
	return tr
}

// geoRegions builds the per-region fleets: independent single-GPU
// replicas scaling on local queue depth within [geoInitial, geoMax],
// paying cold on every spawn.
func geoRegions(cm *perf.CostModel, topo serve.Topology, cold time.Duration) []serve.Region {
	regions := make([]serve.Region, len(topo.Regions))
	for i := range regions {
		configs := make([]serve.Config, geoInitial)
		for j := range configs {
			configs[j] = serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
		}
		regions[i] = serve.Region{
			Configs: configs,
			Autoscale: &serve.AutoscaleConfig{
				Scaler:    serve.NewQueueDepthAutoscaler(),
				Interval:  5 * time.Second,
				ColdStart: cold,
				Min:       geoInitial,
				Max:       geoMax,
			},
		}
	}
	return regions
}

// geoDeployment builds one sweep cell's deployment: the topology's
// regions behind the named geo routing policy.
func geoDeployment(cm *perf.CostModel, topo serve.Topology, policy string, cold time.Duration) (serve.Geo, error) {
	router, err := serve.NewGeoRouter(policy)
	if err != nil {
		return serve.Geo{}, err
	}
	return serve.Geo{
		Name:     "geo-" + policy,
		Topology: topo,
		Regions:  geoRegions(cm, topo, cold),
		Router:   router,
	}, nil
}

// geoBaseline is the consolidated single-region comparator (no RTT
// anywhere, combined fleet bounds) every multi-region row must justify
// itself against, with its copy of the workload.
func geoBaseline(cm *perf.CostModel, tr *workload.Trace, cold time.Duration) cell {
	topo := serve.SingleRegion("single-site")
	regions := geoRegions(cm, topo, cold)
	configs := make([]serve.Config, 2*geoInitial)
	for j := range configs {
		configs[j] = serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}
	}
	regions[0].Configs = configs
	regions[0].Autoscale.Min = 2 * geoInitial
	regions[0].Autoscale.Max = 2 * geoMax
	// Origins name regions that do not exist in the one-region topology:
	// strip them (a single site serves everyone, RTT-free by fiat).
	local := &workload.Trace{Name: tr.Name + "-single", Requests: append([]workload.Request(nil), tr.Requests...)}
	for i := range local.Requests {
		local.Requests[i].Origin = ""
	}
	return cell{
		name:  fmt.Sprintf("single-site/cold=%v", cold),
		sys:   serve.Geo{Name: "geo-single", Topology: topo, Regions: regions},
		trace: local,
	}
}

// GeoServing is the multi-region serving scenario: the two-region bursty
// workload replayed under every geo routing policy x topology x
// cold-start penalty, each region autoscaling on its own queue-depth
// signal, against a consolidated single-region baseline. The table is
// the RTT-vs-cold-start break-even made measurable: nearest never pays
// RTT but eats every cold start locally, least-loaded-global balances
// blindly across the WAN, and spill-over pays the round trip only when
// the projected local wait (plus any pending cold start) exceeds it.
func GeoServing(e Env, coldStarts []time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	topos := geoTopologies()
	if e.Quick {
		topos = topos[len(topos)-1:] // the antipodal pair stresses the trade-off most
	}
	if coldStarts == nil {
		coldStarts = geoColdStarts(e)
	}
	tab := stats.NewTable("Policy", "Topology", "ColdStart", "Fleet mean/peak",
		"Replica-s", "$/Mtok", "Int TTFT-SLO %", "p50 TTFT ms", "p99 TTFT ms",
		"Spilled %", "Ups", "Downs", "Rejected")
	// The grid: the consolidated single-region baseline plus every geo
	// policy, per topology x cold start.
	type axis struct {
		policy, topoName string
		cold             time.Duration
	}
	var axes []axis
	var cells []cell
	for _, topo := range topos {
		topoName := fmt.Sprintf("%s+%s/%v", topo.Regions[0], topo.Regions[1], topo.RTT[0][1])
		tr := geoTrace(e, topo.Regions[0], topo.Regions[1])
		for _, cold := range coldStarts {
			axes = append(axes, axis{"single-region", topoName, cold})
			cells = append(cells, geoBaseline(cm, tr, cold))
			for _, policy := range serve.GeoRouterNames {
				g, err := geoDeployment(cm, topo, policy, cold)
				if err != nil {
					return nil, err
				}
				axes = append(axes, axis{policy, topoName, cold})
				cells = append(cells, cell{name: fmt.Sprintf("%s/%s/cold=%v", policy, topoName, cold), sys: g, trace: tr})
			}
		}
	}
	results, err := runCells(e, cells)
	if err != nil {
		return nil, err
	}
	for i, a := range axes {
		res := results[i]
		att := attainment(res, "interactive")
		ttft := classTTFT(res, "interactive")
		tab.AddRow(a.policy, a.topoName, a.cold,
			fmt.Sprintf("%.1f/%d", res.MeanFleet(), res.PeakFleet()),
			res.ReplicaSeconds, res.CostPerMToken(NominalGPUHourUSD),
			100*att.TTFTRate(), ttft.Median(), ttft.P99(),
			spilledPct(res), res.ScaleUps, res.ScaleDowns, res.Rejected)
	}
	return tab, nil
}

// spilledPct is the percentage of a geo run's requests served outside
// their origin region.
func spilledPct(res *serve.Result) float64 {
	if len(res.PerRequest) == 0 {
		return 0
	}
	return 100 * float64(res.Spilled()) / float64(len(res.PerRequest))
}

// GeoRegionBreakdown renders the per-region view of one sweep cell: who
// originated, who served, how much spilled, and what each region's fleet
// cost — the detail behind a GeoServing summary row.
func GeoRegionBreakdown(e Env, policy string, cold time.Duration) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	topos := geoTopologies()
	topo := topos[len(topos)-1]
	tr := geoTrace(e, topo.Regions[0], topo.Regions[1])
	g, err := geoDeployment(cm, topo, policy, cold)
	if err != nil {
		return nil, err
	}
	results, err := runCells(e, []cell{{name: policy, sys: g, trace: tr}})
	if err != nil {
		return nil, err
	}
	res := results[0]
	tab := stats.NewTable("Region", "Origin reqs", "Served", "Spill in", "Spill out",
		"Rejected", "p50 TTFT ms", "Int TTFT-SLO %", "Replica-s", "Ups", "Downs")
	for _, rs := range res.RegionStats {
		tab.AddRow(rs.Name, rs.OriginRequests, rs.ServedRequests, rs.SpillIn, rs.SpillOut,
			rs.Rejected, rs.TTFT.Median(), 100*rs.SLO.TTFTRate(),
			rs.ReplicaSeconds, rs.ScaleUps, rs.ScaleDowns)
	}
	return tab, nil
}
