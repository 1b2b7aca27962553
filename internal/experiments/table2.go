package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// Table2 verifies the communication complexities of the paper's Table 2
// on the functional layer: it runs real TP, SP and combined (SP, TP)
// forwards on simulated GPUs, counts the wire bytes rank 0's collectives
// move in one iteration, and compares them with the cost model's
// perf.CommVolume over all layers, in 8-byte elements. Both sides are
// integer element counts, so they must match exactly.
//
// The observable consequence is the last column of Table 2: TP's
// communication-to-compute ratio grows with p while SP's does not.
func Table2(e Env) (*stats.Table, error) {
	cfg := transformer.Config{Layers: 2, Hidden: 32, QHeads: 8, KVHeads: 4, FFN: 32}
	m := model.Config{Layers: cfg.Layers, Hidden: cfg.Hidden, QHeads: cfg.QHeads, KVHeads: cfg.KVHeads, FFN: cfg.FFN}
	w := transformer.NewWeights(cfg, e.Seed)
	n := 16 // batch tokens

	tab := stats.NewTable("Parallelism", "Degree", "Collective", "Bytes/rank measured", "Bytes/rank formula", "Match")
	for _, grid := range [][2]int{{1, 2}, {2, 1}, {1, 4}, {4, 1}, {1, 8}, {8, 1}, {2, 2}, {4, 2}} {
		sp, tp := grid[0], grid[1]
		lay := parallel.Layout{Cfg: cfg, SP: sp, TP: tp}
		name, mode, degree := "SP", parallel.ModeSP, fmt.Sprint(lay.World())
		switch {
		case sp == 1:
			name, mode = "TP", parallel.ModeTP
		case tp > 1:
			name, degree = "SP+TP", fmt.Sprintf("%dx%d", sp, tp)
		}
		eng, err := parallel.NewEngine(w, lay, mode, parallel.NewCaches(lay))
		if err != nil {
			return nil, err
		}
		rng := tensor.NewRNG(e.Seed + uint64(lay.World()))
		eng.Forward([]transformer.Chunk{{Seq: 0, X: rng.RandMatrix(n, cfg.Hidden, 1)}})
		got := eng.CommCounters()
		ar, a2a := perf.CommVolume(m, perf.Parallelism{SP: sp, TP: tp}, n)
		ar, a2a = float64(cfg.Layers)*ar*8, float64(cfg.Layers)*a2a*8
		if tp > 1 {
			tab.AddRow(name, degree, "all-reduce", got.AllReduceBytes, ar, matchMark(got.AllReduceBytes, ar))
		}
		if sp > 1 {
			tab.AddRow(name, degree, "all-to-all", got.AllToAllBytes, a2a, matchMark(got.AllToAllBytes, a2a))
		}
	}
	return tab, nil
}

func matchMark(got, want float64) string {
	if got == want {
		return "ok"
	}
	return fmt.Sprintf("MISMATCH (%.3fx)", got/want)
}
