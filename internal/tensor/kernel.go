package tensor

// The two inner update loops of the GEMM kernel. matmul and matmulRow
// call axpy4x2 and axpy4, which run the AVX assembly on an amd64 host
// that has AVX (kernel_amd64.go) and these Go loops everywhere else.
// Both forms add, for each output column j, the four products to o[j]
// one at a time from the left, so they give the same bits.

// axpy4x2Go sets, for each j < len(o0),
//
//	o0[j] = o0[j] + x[0]*b0[j] + x[1]*b1[j] + x[2]*b2[j] + x[3]*b3[j]
//	o1[j] = o1[j] + y[0]*b0[j] + y[1]*b1[j] + y[2]*b2[j] + y[3]*b3[j]
//
// so one load of b0..b3 serves two rows of the output.
func axpy4x2Go(o0, o1, x, y, b0, b1, b2, b3 []float64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	b0, b1, b2, b3 = b0[:len(o0)], b1[:len(o0)], b2[:len(o0)], b3[:len(o0)]
	o1 = o1[:len(o0)]
	for j, o := range o0 {
		p0, p1, p2, p3 := b0[j], b1[j], b2[j], b3[j]
		o0[j] = o + x0*p0 + x1*p1 + x2*p2 + x3*p3
		o1[j] = o1[j] + y0*p0 + y1*p1 + y2*p2 + y3*p3
	}
}

// axpy4Go sets, for each j < len(o),
//
//	o[j] = o[j] + a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
func axpy4Go(o, a, b0, b1, b2, b3 []float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j, v := range o {
		o[j] = v + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}
