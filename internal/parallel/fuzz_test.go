package parallel

import (
	"testing"

	"repro/internal/transformer"
)

// FuzzLayout fuzzes the layout space (QHeads, KVHeads, SP, TP) on the
// smallest model the divisibility rules allow (one layer, head dim 1,
// FFN one column per rank). Every input must either fail
// Layout.Validate, or build its caches and a base and a shift engine over
// them without error, with head ranges that checkRanges accepts. The
// seeded corpus in testdata/fuzz/FuzzLayout also runs under go test.
func FuzzLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, q, kv, sp, tp uint8) {
		world := int(sp) * int(tp)
		cfg := transformer.Config{Layers: 1, Hidden: int(q), QHeads: int(q), KVHeads: int(kv), FFN: world}
		lay := Layout{Cfg: cfg, SP: int(sp), TP: int(tp)}
		// A valid layout has world | QHeads <= 255, which bounds what
		// follows to a few hundred tiny ranks.
		if lay.Validate() != nil {
			return
		}
		if err := checkRanges(lay); err != nil {
			t.Fatalf("%v q=%d kv=%d: %v", lay, q, kv, err)
		}
		w := transformer.NewWeights(cfg, 1)
		caches := NewCaches(lay)
		for _, mode := range []Mode{ModeSP, ModeTP} {
			if _, err := NewEngine(w, lay, mode, caches); err != nil {
				t.Fatalf("%v q=%d kv=%d %v: %v", lay, q, kv, mode, err)
			}
		}
	})
}
