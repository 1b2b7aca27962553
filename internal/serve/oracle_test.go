package serve

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/perf"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// TestSingleServerIsMD1 checks the engine against a queueing result
// from outside the simulator. One TP=1 replica that runs one sequence
// at a time, fed fixed-size requests at Poisson arrivals, is an M/D/1
// queue: every request's service (prefill plus decode) takes the same
// time S, and a request waits only for the ones ahead of it. So
// Completion − TTFT must equal the lone request's exactly, and the mean
// queueing delay (TTFT − the lone TTFT) must match Pollaczek–Khinchine,
// W = ρS / (2(1 − ρ)), within sampling error over ~20k requests.
func TestSingleServerIsMD1(t *testing.T) {
	cfg := Config{CM: llamaCM(t), Par: perf.Parallelism{SP: 1, TP: 1}, MaxSeqs: 1}
	sizes := workload.FixedSize{In: 1024, Out: 16}
	run := func(tr *workload.Trace) []RequestMetrics {
		t.Helper()
		res, err := SingleEngine("md1", cfg).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRequest
	}
	lone := run(workload.Single(sizes.In, sizes.Out))[0]
	decode := lone.Completion - lone.TTFT
	service := lone.Completion.Seconds()

	const requests = 20000
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rho=%.1f/seed=%d", rho, seed), func(t *testing.T) {
				rate := rho / service
				dur := time.Duration(requests / rate * float64(time.Second))
				rows := run(workload.Poisson("md1", tensor.NewRNG(seed), rate, dur, sizes, ""))
				var wait float64
				for _, m := range rows {
					if m.Rejected || m.Preemptions != 0 {
						t.Fatalf("request %d: rejected=%v preemptions=%d", m.ID, m.Rejected, m.Preemptions)
					}
					if got := m.Completion - m.TTFT; got != decode {
						t.Fatalf("request %d: Completion−TTFT %v, want the lone request's %v", m.ID, got, decode)
					}
					wait += (m.TTFT - lone.TTFT).Seconds()
				}
				wait /= float64(len(rows))
				want := rho * service / (2 * (1 - rho))
				if rel := wait/want - 1; math.Abs(rel) > 0.10 {
					t.Fatalf("mean wait %.4fs over %d requests, Pollaczek–Khinchine %.4fs (%+.1f%%)", wait, len(rows), want, 100*rel)
				}
			})
		}
	}
}
