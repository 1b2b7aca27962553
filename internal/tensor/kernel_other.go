//go:build !amd64

package tensor

// axpy4x2 is axpy4x2Go: only amd64 has an assembly form.
func axpy4x2(o0, o1, x, y, b0, b1, b2, b3 []float64) { axpy4x2Go(o0, o1, x, y, b0, b1, b2, b3) }

// axpy4 is axpy4Go: only amd64 has an assembly form.
func axpy4(o, a, b0, b1, b2, b3 []float64) { axpy4Go(o, a, b0, b1, b2, b3) }
