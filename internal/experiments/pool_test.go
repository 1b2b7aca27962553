package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestPoolRunReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := NewPool(4).Run(10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errB {
		t.Fatalf("got %v, want the lowest-index error %v", err, errB)
	}
}

func TestPoolRunCoversAllCells(t *testing.T) {
	hits := make([]bool, 25)
	if err := NewPool(0).Run(len(hits), func(i int) error { hits[i] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h {
			t.Fatalf("cell %d not run", i)
		}
	}
}

func TestPoolRunCoversEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			hits := make([]int32, n)
			err := NewPool(workers).Run(n, func(i int) error { atomic.AddInt32(&hits[i], 1); return nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: cell %d run %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestPoolRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := NewPool(workers).Run(100, func(int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent cells, worker bound is %d", p, workers)
	}
}

func TestPoolRunSerialPreservesOrder(t *testing.T) {
	var order []int
	if err := NewPool(1).Run(10, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestNewPoolWidth(t *testing.T) {
	for requested, want := range map[int]int{0: runtime.GOMAXPROCS(0), -3: runtime.GOMAXPROCS(0), 5: 5} {
		if got := NewPool(requested).workers; got != want {
			t.Fatalf("NewPool(%d) width %d, want %d", requested, got, want)
		}
	}
}

// TestRunCellsScenariosMatchSerial extends the same contract to the
// paper-figure loops that moved onto runCells: every scenario's table
// must be byte-identical at any pool width (cells recompute exactly
// what the serial loop did, and rows assemble in cell order).
func TestRunCellsScenariosMatchSerial(t *testing.T) {
	base := DefaultEnv()
	base.Quick = true
	sweeps := map[string]func(e Env) (*stats.Table, error){
		"fig12": func(e Env) (*stats.Table, error) { return Fig12(e, model.Llama70B()) },
		"fig14": func(e Env) (*stats.Table, error) { return Fig14(e, model.Llama70B(), []float64{1, 6}) },
		"ablation-threshold": func(e Env) (*stats.Table, error) {
			return AblationThreshold(e, []int{1, 256})
		},
		"extension-ep": func(e Env) (*stats.Table, error) { return ExtensionEP(e) },
	}
	for name, sweep := range sweeps {
		serialEnv := base
		serialEnv.Workers = 1
		serial, err := sweep(serialEnv)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallelEnv := base
		parallelEnv.Workers = 4
		parallel, err := sweep(parallelEnv)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s diverged between pool widths:\nserial:\n%v\nparallel:\n%v", name, serial, parallel)
		}
	}
}

// TestRunCellsTracesOneCell pins the runner's tracing and error rules:
// Env.Obs goes to the marked cell (else cell 0) and to no other, and a
// failing cell's error carries its name.
func TestRunCellsTracesOneCell(t *testing.T) {
	cm, err := perf.New(DefaultEnv().Node, model.Llama70B(), perf.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	one := serve.SingleEngine("one", serve.Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 8}})
	tr := workload.Single(512, 8)
	for _, marked := range []int{-1, 2} {
		cells := make([]cell, 3)
		for i := range cells {
			cells[i] = cell{name: fmt.Sprint(i), sys: one, trace: tr, traced: i == marked}
		}
		e := DefaultEnv()
		e.Workers = 2
		e.Obs = obs.NewObserver()
		if _, err := runCells(e, cells); err != nil {
			t.Fatal(err)
		}
		want := max(marked, 0)
		for i, c := range cells {
			if got := c.sys.(serve.Cluster).Obs; (got == e.Obs) != (i == want) {
				t.Fatalf("marked %d: cell %d observer %p, Env.Obs %p", marked, i, got, e.Obs)
			}
		}
		if e.Obs.Empty() {
			t.Fatalf("marked %d: the traced cell recorded nothing", marked)
		}
	}
	_, err = runCells(DefaultEnv(), []cell{{name: "ok", sys: one, trace: tr}, {name: "empty", sys: serve.Cluster{Name: "x"}, trace: tr}})
	if err == nil || !strings.HasPrefix(err.Error(), "empty: ") {
		t.Fatalf("error %v does not name the failing cell", err)
	}
}
