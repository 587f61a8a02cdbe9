package seam

import "math"

// Hyperviscosity: the scale-selective dissipation production SEAM (and its
// successors HOMME/CAM-SE) apply to keep under-resolved scales from
// accumulating energy. The operator is nu * del^4, applied as two
// DSS-projected spectral Laplacians per field; del^4 damps the grid-scale
// modes strongly while leaving resolved scales nearly untouched.

// Laplacian evaluates the covariant scalar Laplacian of q,
//
//	del^2 q = (1/sqrtG) [ d_a( sqrtG (g^11 q_a + g^12 q_b) )
//	                    + d_b( sqrtG (g^12 q_a + g^22 q_b) ) ],
//
// into out, followed by a DSS projection; q is not modified.
func (sw *ShallowWater) Laplacian(q, out []float64) {
	g := sw.G
	npts := g.PointsPerElem()
	scr := sw.scr
	da, db, f1, f2 := scr.da1, scr.db1, scr.f1, scr.f2
	for base := 0; base < len(q); base += npts {
		sq := g.SqrtG[base : base+npts]
		rsq := g.RSqrtG[base : base+npts]
		gi11 := g.GI11[base : base+npts]
		gi12 := g.GI12[base : base+npts]
		gi22 := g.GI22[base : base+npts]
		g.DiffAlphaBeta(q[base:base+npts], da, db)
		for i := 0; i < npts; i++ {
			qa, qb := da[i], db[i]
			f1[i] = sq[i] * (gi11[i]*qa + gi12[i]*qb)
			f2[i] = sq[i] * (gi12[i]*qa + gi22[i]*qb)
		}
		g.DiffAlpha(f1, da)
		g.DiffBeta(f2, db)
		oute := out[base : base+npts]
		for i := 0; i < npts; i++ {
			oute[i] = (da[i] + db[i]) * rsq[i]
		}
	}
	sw.Flops += rhsFlopsAdvection(g.NumElems(), g.Np) * 2
	sw.Dss.Apply(out)
}

// ApplyHyperviscosity advances every prognostic field by one forward-Euler
// hyperviscosity step: q <- q - dt * nu * del^4 q (nu in m^4/s). Following
// SEAM practice it is applied as a separate pass after the dynamics step,
// and the velocity components are filtered through the same scalar operator
// (adequate because the covariant components are smooth within faces and
// the vector DSS restores cross-face consistency). The tendency slab k1pF
// and the accumulator apF, both dead between steps, hold del^2 q and del^4 q.
func (sw *ShallowWater) ApplyHyperviscosity(dt, nu float64) {
	c := dt * nu
	for _, q := range [][]float64{sw.V1, sw.V2, sw.Phi} {
		sw.Laplacian(q, sw.k1pF)      // del^2 q
		sw.Laplacian(sw.k1pF, sw.apF) // del^4 q
		for i := range q {
			q[i] -= c * sw.apF[i]
		}
	}
	sw.Dss.ApplyVector(sw.V1, sw.V2)
	sw.Dss.Apply(sw.Phi)
	sw.Flops += int64(len(sw.Phi)) * 3 * 2
}

// StableHyperviscosity returns a forward-Euler-stable nu for the given time
// step: the largest del^4 eigenvalue on a GLL grid scales like
// (pi/dx_min)^4, and stability requires dt*nu*lambda_max < 1. The returned
// value includes a safety factor of 0.05 on that bound (the GLL spectral
// radius exceeds the uniform-grid estimate by a small factor, measured in
// the stability test).
func (sw *ShallowWater) StableHyperviscosity(dt float64) float64 {
	g := sw.G
	dxMin := (g.GLL.Points[1] - g.GLL.Points[0]) / 2 * g.DAlpha * g.Radius
	kMax := math.Pi / dxMin
	lambda := kMax * kMax * kMax * kMax
	return 0.05 / (dt * lambda)
}
