package kvcache

import (
	"slices"
	"testing"

	"repro/internal/tensor"
)

// FuzzCache runs a program of Reserve, Append, Drop, ViewsInto and Len
// calls, decoded from ops three bytes at a time, on a cache of small
// dimensions (1-3 layers, 1-3 heads, head dim 1-4, sequences 0-3), and
// checks each result against a naive model: per sequence, one list of
// key rows and one of value rows per (layer, head). Every view a
// ViewsInto returned must keep its rows through the later calls, slab
// growths and drops included, and at the end the cache must equal, by
// Equal and Fingerprint, a cache built by Append alone from the model.
// The seeded corpus in testdata/fuzz/FuzzCache also runs under go test.
func FuzzCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, layers, heads, dim uint8, ops []byte) {
		L, H, D := 1+int(layers)%3, 1+int(heads)%3, 1+int(dim)%4
		c := NewCache(L, H, D)
		model := map[int][][2][]float64{} // seq -> (layer*H+head) -> key, value rows
		type kept struct {
			k, v         tensor.Matrix
			wantK, wantV []float64
		}
		var views []kept
		val := 0.0
		for len(ops) >= 3 {
			op, a, b := ops[0]%5, ops[1], ops[2]
			ops = ops[3:]
			seq, l, h := int(a)%4, int(a>>2)%L, int(b)%H
			i := l*H + h
			switch op {
			case 0: // Reserve
				n := int(b>>2) % 8
				c.Reserve(seq, l, h, n)
				if model[seq] == nil {
					model[seq] = make([][2][]float64, L*H)
				}
			case 1: // Append
				k, v := make([]float64, D), make([]float64, D)
				for j := range k {
					val++
					k[j], v[j] = val, -val
				}
				c.Append(seq, l, h, k, v)
				if model[seq] == nil {
					model[seq] = make([][2][]float64, L*H)
				}
				model[seq][i][0] = append(model[seq][i][0], k...)
				model[seq][i][1] = append(model[seq][i][1], v...)
			case 2: // Drop
				c.Drop(seq)
				delete(model, seq)
			case 3: // ViewsInto
				var kv kept
				c.ViewsInto(&kv.k, &kv.v, seq, l, h)
				var want [2][]float64
				if model[seq] != nil {
					want = model[seq][i]
				}
				kv.wantK, kv.wantV = slices.Clone(want[0]), slices.Clone(want[1])
				if kv.k.Rows != len(want[0])/D || kv.k.Cols != D || kv.v.Rows != kv.k.Rows || kv.v.Cols != D {
					t.Fatalf("ViewsInto(seq %d, %d, %d) = %dx%d and %dx%d, want %dx%d", seq, l, h,
						kv.k.Rows, kv.k.Cols, kv.v.Rows, kv.v.Cols, len(want[0])/D, D)
				}
				views = append(views, kv)
			case 4: // Len
				want := 0
				for _, rows := range model[seq] {
					want = max(want, len(rows[0])/D)
				}
				if got := c.Len(seq); got != want {
					t.Fatalf("Len(%d) = %d, want %d", seq, got, want)
				}
			}
			for j, kv := range views {
				if !slices.Equal(kv.k.Data, kv.wantK) || !slices.Equal(kv.v.Data, kv.wantV) {
					t.Fatalf("after op %d, view %d holds k %v v %v, want k %v v %v", op, j, kv.k.Data, kv.v.Data, kv.wantK, kv.wantV)
				}
			}
		}
		plain := NewCache(L, H, D)
		ids := make([]int, 0, len(model))
		for seq, heads := range model {
			ids = append(ids, seq)
			plain.Reserve(seq, 0, 0, 0)
			for i, rows := range heads {
				for r := 0; r < len(rows[0]); r += D {
					plain.Append(seq, i/H, i%H, rows[0][r:r+D], rows[1][r:r+D])
				}
			}
		}
		slices.Sort(ids)
		if got := c.Sequences(); !slices.Equal(got, ids) {
			t.Fatalf("Sequences() = %v, want %v", got, ids)
		}
		if !Equal(c, plain, 0) || c.Fingerprint() != plain.Fingerprint() {
			t.Fatal("cache differs from the Append-only cache of its model")
		}
	})
}
