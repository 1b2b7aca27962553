package tensor

// useAVX reports whether the CPU has AVX and the OS saves its
// registers, checked once when the package loads. Without it the
// kernel runs the Go loops.
var useAVX = hasAVX()

func hasAVX() bool

// axpy4x2AVX and axpy4AVX are axpy4x2Go and axpy4Go in AVX assembly
// (kernel_amd64.s). They take len(o0) or len(o) as the column count,
// read four scalars from x, y or a and that many columns of every other
// slice, and check no length: axpy4x2 and axpy4 reslice their operands
// first, so a short one panics in Go.
//
//go:noescape
func axpy4x2AVX(o0, o1, x, y, b0, b1, b2, b3 []float64)

//go:noescape
func axpy4AVX(o, a, b0, b1, b2, b3 []float64)

// axpy4x2 is axpy4x2Go, run in AVX assembly when the host has AVX.
func axpy4x2(o0, o1, x, y, b0, b1, b2, b3 []float64) {
	if !useAVX {
		axpy4x2Go(o0, o1, x, y, b0, b1, b2, b3)
		return
	}
	n := len(o0)
	axpy4x2AVX(o0, o1[:n], x[:4], y[:4], b0[:n], b1[:n], b2[:n], b3[:n])
}

// axpy4 is axpy4Go, run in AVX assembly when the host has AVX.
func axpy4(o, a, b0, b1, b2, b3 []float64) {
	if !useAVX {
		axpy4Go(o, a, b0, b1, b2, b3)
		return
	}
	n := len(o)
	axpy4AVX(o, a[:4], b0[:n], b1[:n], b2[:n], b3[:n])
}
