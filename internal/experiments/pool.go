package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool fans independent experiment sweep cells out over a bounded
// worker pool; it is the simulator's only parallelism, since each cell
// runs its deployment on one goroutine. Cells must be independent — each
// one simulates its own deployment and writes only its own
// index-addressed result — so tables assemble in submission order and a
// sweep's output is byte-identical to the serial loop, no matter how the
// cells interleave. Shared inputs (traces, cost models) are read-only
// during runs.
type Pool struct{ workers int }

// NewPool returns a pool of the given width: zero or negative uses
// GOMAXPROCS, 1 runs the cells in order on the calling goroutine.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Run executes cell(i) for every i in [0, n) on up to the pool's width
// of goroutines and returns the lowest-index error — deterministic no
// matter which worker hit an error first. All cells run to completion
// even when one fails; cells are expected to be side-effect-free beyond
// their own slot, and Run's return makes those writes visible to the
// caller.
func (p *Pool) Run(n int, cell func(int) error) error {
	errs := make([]error, n)
	if w := min(p.workers, n); w <= 1 {
		for i := range n {
			errs[i] = cell(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					errs[i] = cell(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCells fans n independent sweep cells over the env's worker pool
// and returns their results in cell order, so tables built from them
// are byte-identical to the serial loop at any pool width. This is how
// Env.Workers reaches every scenario: any experiment whose loop runs
// one deployment per iteration fans out through here. Cells must share
// only read-only state (traces, cost models) and construct their own
// clusters/routers.
func runCells[T any](e Env, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := NewPool(e.Workers).Run(n, func(i int) error {
		v, err := run(i)
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
