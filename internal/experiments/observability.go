package experiments

import (
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/stats"
)

// TraceOverhead measures what observability costs: one failure-recovery
// sweep cell (the crash-restart plan under the queue-depth autoscaler
// with live-least-loaded routing — the cell whose trace carries the
// richest span mix: queue/prefill/decode phases, preemptions, a crash,
// retries, ejection, readmission) replayed with tracing disabled and
// enabled. The disabled row is the fast path every untraced run takes —
// a nil-stream pointer compare per hook site, pinned at zero allocations
// by TestDisabledTraceHookAllocates0 and
// BenchmarkSimulator_DisabledTraceHook — so its wall-clock should match
// the pre-observability simulator. The enabled row reports the volume
// bought for the extra wall-clock: lifecycle events across every
// replica track plus controller-tick series rows.
func TraceOverhead(e Env) (*stats.Table, error) {
	cm, err := perf.New(e.Node, model.Llama70B(), e.Params)
	if err != nil {
		return nil, err
	}
	tr := autoscaleTrace(e)
	dur := tr.Requests[len(tr.Requests)-1].Arrival
	plan, err := failurePlan("crash-restart", dur)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Mode", "Requests", "Wall ms", "Trace events", "Series rows")
	run := func(mode string, o *obs.Observer) error {
		start := time.Now()
		res, err := runFailurePolicy(cm, tr, "queue-depth", plan, e.Workers, o)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		events, rows := 0, 0
		if o != nil {
			events, rows = o.EventCount(), len(o.Samples())
		}
		tab.AddRow(mode, len(res.PerRequest), float64(wall)/float64(time.Millisecond),
			events, rows)
		return nil
	}
	if err := run("disabled", nil); err != nil {
		return nil, err
	}
	// Honor a caller-supplied observer (simctl -trace/-series) so the
	// scenario's own enabled run is exportable; otherwise trace into a
	// throwaway.
	o := e.Obs
	if o == nil {
		o = obs.NewObserver()
	}
	if err := run("enabled", o); err != nil {
		return nil, err
	}
	return tab, nil
}
