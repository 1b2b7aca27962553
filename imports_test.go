package repro_test

import (
	"path"
	"slices"
	"strings"
	"testing"
)

// TestSimulatorImportBoundary pins the line between the modeled
// simulator and the functional engine: the non-test code of no
// simulator package may import, directly or through another package of
// the module, the functional engine's collectives, layouts, forwards or
// value-bearing KV cache. The two halves share only the seam packages
// model, hw and perf (Algorithm 2's threshold and Eq. 1); experiments,
// cmd/ and bench/ import both.
//
// The one exception is tensor, which serve, workload and trace reach
// for its RNG (tensor.RNG and NewRNG seed every workload generator).
// tensor/rng.go can move into its own package only together with the
// benchmark module, which passes tensor.NewRNG into the workload
// generators and builds matrices with the RNG's RandMatrix.
func TestSimulatorImportBoundary(t *testing.T) {
	simulator := []string{"serve", "perf", "workload", "trace", "obs", "stats", "scenario", "specdec", "model", "hw"}
	functional := []string{"comm", "parallel", "transformer", "core", "kvcache"}
	tensorFor := []string{"serve", "workload", "trace"} // the RNG, see above

	l := newSourceLoader(t)
	imports := func(p string) []string {
		var out []string
		for _, f := range l.files[p] {
			for _, imp := range f.Imports {
				if q := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(q, "repro/") && !slices.Contains(out, q) {
					out = append(out, q)
				}
			}
		}
		return out
	}
	for _, name := range simulator {
		root := "repro/internal/" + name
		if _, ok := l.files[root]; !ok {
			t.Fatalf("no source for %s", root)
		}
		// via[p] is the package that first imported p on the walk from
		// root, so a violation prints the chain that reaches it.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, q := range imports(p) {
				if _, seen := via[q]; !seen {
					via[q] = p
					queue = append(queue, q)
				}
			}
		}
		forbidden := functional
		if !slices.Contains(tensorFor, name) {
			forbidden = append(slices.Clone(functional), "tensor")
		}
		for _, bad := range forbidden {
			p := "repro/internal/" + bad
			if _, ok := via[p]; !ok {
				continue
			}
			var chain []string
			for q := p; q != ""; q = via[q] {
				chain = append(chain, path.Base(q))
			}
			slices.Reverse(chain)
			t.Errorf("%s reaches %s outside tests: %s", name, bad, strings.Join(chain, " -> "))
		}
	}
}
