// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation (DESIGN.md holds the index). Each
// bench runs the corresponding experiment at reduced (Quick) scale and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result in one sweep. Full-scale runs are available
// through the cmd/ binaries.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/serve"
)

func benchEnv() experiments.Env {
	e := experiments.DefaultEnv()
	e.Quick = true
	return e
}

// BenchmarkFig01_Headline regenerates Figure 1: the response/generation/
// throughput comparison on Llama-70B with 4k/250 requests.
func BenchmarkFig01_Headline(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(e, model.Llama70B()); err != nil {
			b.Fatal(err)
		}
	}
	reportFig12(b, e)
}

// reportFig12 attaches the headline points as metrics.
func reportFig12(b *testing.B, e experiments.Env) {
	b.Helper()
	cm := perf.MustNew(e.Node, model.Llama70B(), e.Params)
	clusters, err := serve.StandardClusters(cm, perf.Parallelism{SP: 8, TP: 1}, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"TP", "Shift"} {
		ttft, tpot, err := clusters[name].MinLatency(4096, 250)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ttft.Seconds()*1000, name+"-TTFT-ms")
		b.ReportMetric(tpot.Seconds()*1000, name+"-TPOT-ms")
	}
}

// BenchmarkTable1_Tradeoffs regenerates Table 1's qualitative matrix.
func BenchmarkTable1_Tradeoffs(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(e, model.Llama70B()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_CommComplexity verifies Table 2's communication
// complexities against counted wire bytes on the functional engines.
func BenchmarkTable2_CommComplexity(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table2(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "ok" {
				b.Fatalf("formula mismatch: %v", row)
			}
		}
	}
}

// BenchmarkTable3_OptimalParallelisms regenerates Table 3's matrix of
// per-cell winners.
func BenchmarkTable3_OptimalParallelisms(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(e, model.Llama70B()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig07_Bursty regenerates Figure 7 and Table 5: the bursty
// synthetic workload.
func BenchmarkFig07_Bursty(b *testing.B) {
	e := benchEnv()
	var shiftTTFT, tpTTFT float64
	for i := 0; i < b.N; i++ {
		_, results, _, err := experiments.Fig7Table5(e)
		if err != nil {
			b.Fatal(err)
		}
		shiftTTFT = results["Shift"].TTFT.Median()
		tpTTFT = results["TP"].TTFT.Median()
	}
	b.ReportMetric(shiftTTFT, "Shift-p50TTFT-ms")
	b.ReportMetric(tpTTFT, "TP-p50TTFT-ms")
}

// BenchmarkFig08_TraceStats regenerates Figure 8's trace summaries.
func BenchmarkFig08_TraceStats(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09_AzureTrace regenerates Figures 9/11a: the Azure LLM
// Code twin on Llama-70B.
func BenchmarkFig09_AzureTrace(b *testing.B) {
	e := benchEnv()
	var shift, dp float64
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.Fig9Azure(e)
		if err != nil {
			b.Fatal(err)
		}
		shift = results["Shift"].Completion.Median()
		dp = results["DP"].Completion.Median()
	}
	b.ReportMetric(shift, "Shift-p50Compl-ms")
	b.ReportMetric(dp, "DP-p50Compl-ms")
}

// BenchmarkFig10_MooncakeTrace regenerates Figures 10/11b: the Mooncake
// conversation twin on Qwen-32B with FP8 KV.
func BenchmarkFig10_MooncakeTrace(b *testing.B) {
	e := benchEnv()
	var shift, dp float64
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.Fig10Mooncake(e)
		if err != nil {
			b.Fatal(err)
		}
		shift = results["Shift"].TTFT.Percentile(90)
		dp = results["DP"].TTFT.Percentile(90)
	}
	b.ReportMetric(shift, "Shift-p90TTFT-ms")
	b.ReportMetric(dp, "DP-p90TTFT-ms")
}

// BenchmarkFig12_LatencyThroughput regenerates Figure 12 for both dense
// models.
func BenchmarkFig12_LatencyThroughput(b *testing.B) {
	e := benchEnv()
	for _, m := range []model.Config{model.Llama70B(), model.Qwen32B()} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig12(e, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13_ContextSweep regenerates Figure 13: 2k-128k inputs.
func BenchmarkFig13_ContextSweep(b *testing.B) {
	e := benchEnv()
	for _, m := range []model.Config{model.Llama70B(), model.Qwen32B()} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig13(e, m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14_ArrivalSweep regenerates Figure 14: completion time vs
// arrival rate.
func BenchmarkFig14_ArrivalSweep(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(e, model.Llama70B(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15_CostBreakdown regenerates Figure 15 on the 8xH100 node.
func BenchmarkFig15_CostBreakdown(b *testing.B) {
	e := benchEnv()
	for _, m := range []model.Config{model.Llama70B(), model.Qwen32B()} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig15(e, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16_Production regenerates Figure 16: the SwiftKV +
// speculative decoding production composition.
func BenchmarkFig16_Production(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17_ModelSweep regenerates Figure 17: all four Table 4
// models, including the MoE configurations.
func BenchmarkFig17_ModelSweep(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq1_WeightMemory regenerates the Eq. 1 weight-overhead table.
func BenchmarkEq1_WeightMemory(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		_ = experiments.Eq1(e)
	}
}

// --- Ablation benches for DESIGN.md's design decisions ---

// BenchmarkAblation_Threshold sweeps Algorithm 2's shift threshold (D1).
func BenchmarkAblation_Threshold(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationThreshold(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ChunkBudget sweeps the chunked-prefill budget (D4).
func BenchmarkAblation_ChunkBudget(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationChunkBudget(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_MemoryStrategy compares separate models against
// on-the-fly slicing (D2).
func BenchmarkAblation_MemoryStrategy(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMemoryStrategy(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_DPLockstep quantifies the vLLM DP lockstep penalty.
func BenchmarkAblation_DPLockstep(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDPLockstep(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_PrefixCache sweeps vLLM-style automatic prefix
// caching hit rates on the agentic trace.
func BenchmarkAblation_PrefixCache(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPrefixCache(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_ExpertParallel evaluates the paper's stated future
// work: combining SP with expert parallelism on the MoE models.
func BenchmarkExtension_ExpertParallel(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionEP(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster_Routing sweeps the router policies x replica counts
// on mixed interactive+batch SLO traffic (the cluster-routing scenario).
func BenchmarkCluster_Routing(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClusterRouting(e, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster_HeteroRouting runs the heterogeneous-fleet sweep.
func BenchmarkCluster_HeteroRouting(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeteroRouting(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster_Autoscaling sweeps the autoscaler policies x
// cold-start penalties on the bursty trace (the autoscaling scenario's
// provisioned-vs-attainment table).
func BenchmarkCluster_Autoscaling(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Autoscaling(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster_Geo sweeps the geo routing policies x topology x
// cold-start penalties over per-region autoscaled fleets
// (the geo-serving scenario's spill-over break-even table).
func BenchmarkCluster_Geo(b *testing.B) {
	e := benchEnv()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GeoServing(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}
