package seam

// Spectral differentiation micro-kernels. The Go compiler does not
// auto-vectorize, unroll, or fuse FMAs on amd64, so the throughput of these
// loops is set entirely by their source shape: the forms below are written
// to (a) keep every inner loop stride-1 with hoisted bounds checks, (b) break
// the floating-point add latency chain by accumulating a whole output row in
// independent scalars, and (c) specialize the production GLL order (Np = 8,
// degree 7 — the regime of every BENCH_seam.json entry) into a fully
// unrolled kernel over fixed-size array pointers, which eliminates both
// bounds checks and loop overhead.
//
// Summation-order contract: every output point receives its terms in
// ascending j, starting from the j=0 product (not from an explicit zero),
// and is scaled once at the end. The generic and specialized kernels follow
// the identical chain, so they are bitwise interchangeable; DiffAlpha,
// DiffBeta and DiffAlphaBeta all route here, so the sequential
// solver and the parallel runner share one set of kernels by construction.
// TestDiffKernelSpecializationParity locks the generic/specialized
// equivalence; the zero-alloc contract is locked by TestDiffKernelsZeroAlloc
// and BenchmarkDiffAlphaBeta.

// diffAlphaGeneric computes the alpha-derivative (row-direction) of u into
// dua for any np, as stride-1 axpy accumulation over the transposed
// differentiation matrix dt: out_row += Dt_row_j * u_j keeps the writes unit
// stride and the accumulation chains independent across the np outputs.
func diffAlphaGeneric(np int, dt, u, dua []float64, scale float64) {
	for b := 0; b < np; b++ {
		row := u[b*np : (b+1)*np]
		out := dua[b*np : (b+1)*np]
		c := row[0]
		dr := dt[0:np]
		for i := range out {
			out[i] = dr[i] * c
		}
		for j := 1; j < np; j++ {
			c = row[j]
			dr = dt[j*np : (j+1)*np]
			for i := range out {
				out[i] += dr[i] * c
			}
		}
		for i := range out {
			out[i] *= scale
		}
	}
}

// diffBetaGeneric computes the beta-derivative (column-direction) of u into
// dub for any np: for each output row i, accumulate sum_j D[i][j] * u_row_j
// in ascending j (row-axpy, unit stride).
func diffBetaGeneric(np int, d, u, dub []float64, scale float64) {
	u0 := u[0:np]
	for i := 0; i < np; i++ {
		out := dub[i*np : (i+1)*np]
		drow := d[i*np : i*np+np]
		c := drow[0]
		for a := range out {
			out[a] = c * u0[a]
		}
		for j := 1; j < np; j++ {
			c = drow[j]
			urow := u[j*np : (j+1)*np]
			for a := range out {
				out[a] += c * urow[a]
			}
		}
		for a := range out {
			out[a] *= scale
		}
	}
}

// diffAlpha8 is diffAlphaGeneric specialized to np = 8: the row of u is held
// in eight registers and each output is an eight-term product chain with no
// loop or bounds-check overhead in the inner dimension.
func diffAlpha8(d, u, dua []float64, scale float64) {
	dm := (*[64]float64)(d)
	um := (*[64]float64)(u)
	out := (*[64]float64)(dua)
	for b := 0; b < 8; b++ {
		o := b * 8
		u0, u1, u2, u3 := um[o], um[o+1], um[o+2], um[o+3]
		u4, u5, u6, u7 := um[o+4], um[o+5], um[o+6], um[o+7]
		for i := 0; i < 8; i++ {
			t := i * 8
			s := dm[t] * u0
			s += dm[t+1] * u1
			s += dm[t+2] * u2
			s += dm[t+3] * u3
			s += dm[t+4] * u4
			s += dm[t+5] * u5
			s += dm[t+6] * u6
			s += dm[t+7] * u7
			out[o+i] = s * scale
		}
	}
}

// diffBeta8 is diffBetaGeneric specialized to np = 8: the eight outputs of a
// row accumulate in eight independent scalars, so the FP adder never stalls
// on its own latency.
func diffBeta8(d, u, dub []float64, scale float64) {
	dm := (*[64]float64)(d)
	um := (*[64]float64)(u)
	out := (*[64]float64)(dub)
	for i := 0; i < 8; i++ {
		t := i * 8
		c := dm[t]
		s0 := c * um[0]
		s1 := c * um[1]
		s2 := c * um[2]
		s3 := c * um[3]
		s4 := c * um[4]
		s5 := c * um[5]
		s6 := c * um[6]
		s7 := c * um[7]
		for j := 1; j < 8; j++ {
			c = dm[t+j]
			o := j * 8
			s0 += c * um[o]
			s1 += c * um[o+1]
			s2 += c * um[o+2]
			s3 += c * um[o+3]
			s4 += c * um[o+4]
			s5 += c * um[o+5]
			s6 += c * um[o+6]
			s7 += c * um[o+7]
		}
		out[t] = s0 * scale
		out[t+1] = s1 * scale
		out[t+2] = s2 * scale
		out[t+3] = s3 * scale
		out[t+4] = s4 * scale
		out[t+5] = s5 * scale
		out[t+6] = s6 * scale
		out[t+7] = s7 * scale
	}
}
