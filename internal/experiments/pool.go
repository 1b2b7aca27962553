package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/workload"
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

// deployment is what a sweep cell runs: a serve.Cluster or a serve.Geo.
type deployment interface {
	Run(*workload.Trace) (*serve.Result, error)
}

// cell is one simulator run of a sweep: a deployment replaying a trace.
// Each cell builds its own deployment (routers and scalers are
// stateful); cells share only read-only state (traces, cost models).
type cell struct {
	name  string
	sys   deployment
	trace *workload.Trace
	// traced marks the cell Env.Obs records; with none marked, cell 0's
	// run is the traced one.
	traced bool
}

// runCells is how every scenario runs the simulator: it fans the cells
// over the env's worker pool and returns their results in cell order,
// so tables built from them are byte-identical to the serial loop at any
// pool width. An error names the cell it came from. When e.Obs is set,
// exactly one cell runs with it (one observer must not span concurrent
// runs): the marked cell, else cell 0. That cell's deployment in cells
// carries e.Obs afterwards.
func runCells(e Env, cells []cell) ([]*serve.Result, error) {
	if e.Obs != nil && len(cells) > 0 {
		t := 0
		for i, c := range cells {
			if c.traced {
				t = i
				break
			}
		}
		switch d := cells[t].sys.(type) {
		case serve.Cluster:
			d.Obs = e.Obs
			cells[t].sys = d
		case serve.Geo:
			d.Obs = e.Obs
			cells[t].sys = d
		}
	}
	out := make([]*serve.Result, len(cells))
	err := NewPool(e.Workers).Run(len(cells), func(i int) error {
		res, err := cells[i].sys.Run(cells[i].trace)
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].name, err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
