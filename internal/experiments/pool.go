package experiments

import (
	"repro/internal/conc"
)

// Pool fans independent experiment sweep cells out over a bounded
// worker pool. Cells must be independent — each one simulates its own
// deployment and writes only its own index-addressed result — so tables
// assemble in submission order and a sweep's output is byte-identical
// to the serial loop it replaced, no matter how the cells interleave.
// Shared inputs (traces, cost models) are read-only during runs.
type Pool struct{ workers int }

// NewPool returns a pool of the given width: 0 uses GOMAXPROCS, 1 is
// the serial reference path.
func NewPool(workers int) *Pool { return &Pool{workers: conc.Workers(workers)} }

// CellWorkers returns the width each cell's internal simulator pools
// (replica/region stepping) should use: when the sweep pool itself fans
// out, cells run serially inside — the cells already saturate the cores
// and nested full-width pools would oversubscribe them — while a serial
// sweep hands the cells the caller's requested width unchanged.
func (p *Pool) CellWorkers(requested int) int {
	if p.workers > 1 {
		return 1
	}
	return requested
}

// Run executes cell(i) for every i in [0, n) and returns the
// lowest-index error — deterministic no matter which worker hit an
// error first. All cells run to completion even when one fails; cells
// are expected to be side-effect-free beyond their own slot.
func (p *Pool) Run(n int, cell func(int) error) error {
	errs := make([]error, n)
	conc.For(n, p.workers, func(i int) { errs[i] = cell(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCells fans n independent sweep cells over the env's worker pool
// and returns their results in cell order, so tables built from them
// are byte-identical to the serial loop at any pool width. Each cell
// receives the width its own internal simulator pools should use (see
// Pool.CellWorkers). This is how Env.Workers reaches every scenario:
// any experiment whose loop runs one deployment per iteration fans out
// through here. Cells must share only read-only state (traces, cost
// models) and construct their own clusters/routers.
func runCells[T any](e Env, n int, run func(i, workers int) (T, error)) ([]T, error) {
	pool := NewPool(e.Workers)
	cellWorkers := pool.CellWorkers(e.Workers)
	out := make([]T, n)
	err := pool.Run(n, func(i int) error {
		v, err := run(i, cellWorkers)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
