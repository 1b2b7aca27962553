// Package trace synthesizes the request streams of the paper's
// evaluation as statistical twins of the originals (the environment is
// offline, so the public CSV/JSONL traces cannot be fetched; DESIGN.md
// documents the substitution). Each twin matches the load-bearing
// features the paper's results depend on: request counts over 15 minutes,
// arrival burstiness, and input/output size distributions.
package trace

import (
	"time"

	"repro/internal/tensor"
	"repro/internal/workload"
)

// FifteenMinutes is the replay window the paper uses for both production
// traces ("For demonstration we run both traces for 15 minutes").
const FifteenMinutes = 15 * time.Minute

// AzureCode is a twin of the Azure LLM Code Trace (Figure 8a): ~2727
// requests over 15 minutes of agentic code completion; a low-traffic
// baseline with three prominent bursts (the paper points at requests
// ~437, ~1091, ~2181); long-tailed medium prompts and short outputs.
func AzureCode(seed uint64) *workload.Trace {
	rng := tensor.NewRNG(seed)
	sizes := workload.LognormalSize{
		MedianIn: 2300, SigmaIn: 0.9, MaxIn: 12000, MinIn: 64,
		MedianOut: 40, SigmaOut: 0.9, MaxOut: 400, MinOut: 4,
	}
	baseline := workload.Poisson("azure-baseline", rng, 2.0, FifteenMinutes, sizes, "agentic")
	// Three bursts of ~300 requests over ~25 s each, spaced so the
	// preceding baseline puts them near the paper's request indices.
	b1 := workload.Burst("azure-burst1", rng, 300, 2*time.Minute, 25*time.Second, sizes, "agentic")
	b2 := workload.Burst("azure-burst2", rng, 300, 6*time.Minute, 25*time.Second, sizes, "agentic")
	b3 := workload.Burst("azure-burst3", rng, 300, 11*time.Minute, 25*time.Second, sizes, "agentic")
	return workload.Merge("azure-code-twin", baseline, b1, b2, b3)
}

// MooncakeConversation is a twin of the Mooncake conversation trace
// (Figure 8b): ~2832 requests over 15 minutes arriving in steady groups
// ("a batch of nearly 9 requests is sent every 3 seconds"), with medium
// inputs and long outputs. Sizes are scaled so the offered load sits
// between TP's and SP's sustainable throughput for Qwen-32B — the regime
// the paper demonstrates (DP and TP drown, SP and Shift keep up).
func MooncakeConversation(seed uint64) *workload.Trace {
	rng := tensor.NewRNG(seed)
	sizes := workload.LognormalSize{
		MedianIn: 16000, SigmaIn: 0.45, MaxIn: 32000, MinIn: 256,
		MedianOut: 600, SigmaOut: 0.55, MaxOut: 1500, MinOut: 16,
	}
	return workload.BatchedArrivals("mooncake-conv-twin", rng, 9, 2860*time.Millisecond, FifteenMinutes, sizes, "conversation")
}

// Bursty is the synthetic dynamic workload of Figure 7: a steady stream
// of low-frequency interactive requests with four bursts of high-frequency
// batch requests, mixing latency- and throughput-critical traffic.
func Bursty(seed uint64, duration time.Duration) *workload.Trace {
	rng := tensor.NewRNG(seed)
	interactive := workload.LognormalSize{
		MedianIn: 1200, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64,
		MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16,
	}
	batch := workload.LognormalSize{
		MedianIn: 4000, SigmaIn: 0.5, MaxIn: 16000, MinIn: 512,
		MedianOut: 250, SigmaOut: 0.4, MaxOut: 600, MinOut: 32,
	}
	steady := workload.Poisson("bursty-steady", rng, 1.0, duration, interactive, "interactive")
	parts := []*workload.Trace{steady}
	// Four equally spaced bursts, sized so the burst arrival rate lands
	// between TP's and Shift's sustainable throughput (~40k tok/s for
	// Llama-70B): TP queues during bursts, Shift keeps up (Table 5).
	burstN := int(200 * duration.Seconds() / 600)
	if burstN < 25 {
		burstN = 25
	}
	for i := 1; i <= 4; i++ {
		start := time.Duration(i) * duration / 5
		parts = append(parts, workload.Burst("bursty-burst", rng, burstN, start, 25*time.Second, batch, "batch"))
	}
	return workload.Merge("bursty-synthetic", parts...)
}

// ProductionMix is the Figure 16 dataset: a mixture of one-shot
// HumanEval-style completions, agentic SWEBench/CodeAct requests with
// long repo context, and ShareGPT-style chat.
func ProductionMix(seed uint64, n int) *workload.Trace {
	rng := tensor.NewRNG(seed)
	mix := productionMixture()
	reqs := make([]workload.Request, n)
	for i := range reqs {
		in, out, class := mix.SampleClass(rng)
		reqs[i] = workload.Request{InputTokens: in, OutputTokens: out, Class: class}
	}
	return workload.Merge("production-mix", &workload.Trace{Name: "production-mix", Requests: reqs})
}

// ProductionMixOpen is the open-loop variant of ProductionMix: the same
// mixture arriving as a Poisson stream at ratePerSec — the paper's
// latency measurement methodology for Figure 16.
func ProductionMixOpen(seed uint64, ratePerSec float64, duration time.Duration) *workload.Trace {
	rng := tensor.NewRNG(seed)
	mix := productionMixture()
	return workload.Poisson("production-mix-open", rng, ratePerSec, duration, mix, "mixed")
}

// productionMixture is the Figure 16 request-size mixture that
// ProductionMix and ProductionMixOpen both draw from.
func productionMixture() workload.Mixture {
	return workload.Mixture{
		Dists: []workload.SizeDist{
			workload.LognormalSize{MedianIn: 450, SigmaIn: 0.4, MaxIn: 2000, MinIn: 64, MedianOut: 220, SigmaOut: 0.5, MaxOut: 800, MinOut: 16},      // HumanEval
			workload.LognormalSize{MedianIn: 9000, SigmaIn: 0.5, MaxIn: 32000, MinIn: 1024, MedianOut: 480, SigmaOut: 0.5, MaxOut: 1500, MinOut: 32}, // SWEBench agentic
			workload.LognormalSize{MedianIn: 1400, SigmaIn: 0.7, MaxIn: 8000, MinIn: 64, MedianOut: 320, SigmaOut: 0.6, MaxOut: 1000, MinOut: 16},    // ShareGPT
		},
		Weights: []float64{0.35, 0.35, 0.30},
		Classes: []string{"humaneval", "swebench", "sharegpt"},
	}
}

// Stats summarizes a trace the way Figure 8 plots it.
type Stats struct {
	Requests     int
	Duration     time.Duration
	MeanIn       float64
	MaxIn        int
	MeanOut      float64
	MaxOut       int
	OfferedRate  float64 // tokens/sec
	ArrivalsPerS float64
}

// Summarize computes trace statistics.
func Summarize(t *workload.Trace) Stats {
	s := Stats{Requests: len(t.Requests), Duration: t.Duration()}
	for _, r := range t.Requests {
		s.MeanIn += float64(r.InputTokens)
		s.MeanOut += float64(r.OutputTokens)
		if r.InputTokens > s.MaxIn {
			s.MaxIn = r.InputTokens
		}
		if r.OutputTokens > s.MaxOut {
			s.MaxOut = r.OutputTokens
		}
	}
	if s.Requests > 0 {
		s.MeanIn /= float64(s.Requests)
		s.MeanOut /= float64(s.Requests)
	}
	s.OfferedRate = t.OfferedRate()
	if d := s.Duration.Seconds(); d > 0 {
		s.ArrivalsPerS = float64(s.Requests) / d
	}
	return s
}
