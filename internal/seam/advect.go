package seam

import (
	"math"

	"sfccube/internal/mesh"
)

// Advection integrates the advective-form transport equation
//
//	dq/dt + u . grad(q) = 0
//
// on the cubed sphere with a prescribed solid-body rotation wind, the
// classical validation problem for cubed-sphere transport schemes. The
// spatial operator is the spectral element gradient with DSS projection of
// the tendency; time stepping is fourth-order Runge-Kutta.
type Advection struct {
	G   *Grid
	Dss *DSS

	// Ua, Ub are the contravariant wind components at every GLL point.
	Ua, Ub []float64

	// Q is the advected tracer.
	Q []float64

	// Flops counts floating point operations performed so far.
	Flops int64

	// scratch
	k1, k2, k3, k4, tmp, da, db []float64
}

// NewAdvection builds an advection problem on grid g with solid-body
// rotation about axis w (angular speed |w| rad/s, axis direction w/|w|).
func NewAdvection(g *Grid, w mesh.Vec3) *Advection {
	a := &Advection{
		G: g, Dss: NewDSS(g),
		Ua: g.Field(), Ub: g.Field(), Q: g.Field(),
		k1: g.Field(), k2: g.Field(), k3: g.Field(), k4: g.Field(),
		tmp: g.Field(), da: make([]float64, g.PointsPerElem()), db: make([]float64, g.PointsPerElem()),
	}
	// Project the 3D wind onto contravariant components:
	// [g11 g12; g12 g22] [ua; ub] = [V.Ea; V.Eb]  =>  u = gInv * (V.E).
	for i, p := range g.Pos {
		v := w.Cross(p) // solid-body rotation
		va := v.Dot(g.Ea[i])
		vb := v.Dot(g.Eb[i])
		a.Ua[i] = g.GI11[i]*va + g.GI12[i]*vb
		a.Ub[i] = g.GI12[i]*va + g.GI22[i]*vb
	}
	return a
}

// SetTracer initialises the tracer from a pointwise function of position.
func (a *Advection) SetTracer(f func(p mesh.Vec3) float64) {
	for i, p := range a.G.Pos {
		a.Q[i] = f(p)
	}
	a.Dss.Apply(a.Q)
}

// rhs evaluates dq/dt = -(ua dq/dalpha + ub dq/dbeta) into out, with the
// fused derivative kernel streaming each element block through cache once.
func (a *Advection) rhs(q, out []float64) {
	g := a.G
	npts := g.PointsPerElem()
	da, db := a.da, a.db
	for base := 0; base < len(q); base += npts {
		g.DiffAlphaBeta(q[base:base+npts], da, db)
		ua, ub, oute := a.Ua[base:base+npts], a.Ub[base:base+npts], out[base:base+npts]
		for i := 0; i < npts; i++ {
			oute[i] = -(ua[i]*da[i] + ub[i]*db[i])
		}
	}
	a.Flops += rhsFlopsAdvection(g.NumElems(), g.Np)
	a.Dss.Apply(out)
}

// Step advances the tracer by one RK4 step of size dt seconds.
func (a *Advection) Step(dt float64) {
	axpy := func(dst, x []float64, c float64, y []float64) {
		for i := range dst {
			dst[i] = x[i] + c*y[i]
		}
	}
	a.rhs(a.Q, a.k1)
	axpy(a.tmp, a.Q, dt/2, a.k1)
	a.rhs(a.tmp, a.k2)
	axpy(a.tmp, a.Q, dt/2, a.k2)
	a.rhs(a.tmp, a.k3)
	axpy(a.tmp, a.Q, dt, a.k3)
	a.rhs(a.tmp, a.k4)
	for i := range a.Q {
		a.Q[i] += dt / 6 * (a.k1[i] + 2*a.k2[i] + 2*a.k3[i] + a.k4[i])
	}
	a.Flops += int64(len(a.Q)) * (3*2 + 7)
}

// MaxStableDt estimates a stable RK4 time step from the CFL condition using
// the smallest GLL spacing and the maximum wind speed.
func (a *Advection) MaxStableDt(cfl float64) float64 {
	g := a.G
	minSpacing := (g.GLL.Points[1] - g.GLL.Points[0]) / 2 * g.DAlpha * g.Radius
	var vmax float64
	for i, ua := range a.Ua {
		// Physical speed: |u| with covariant metric.
		ub := a.Ub[i]
		v2 := g.G11[i]*ua*ua + 2*g.G12[i]*ua*ub + g.G22[i]*ub*ub
		if v := math.Sqrt(v2); v > vmax {
			vmax = v
		}
	}
	if vmax == 0 {
		return math.Inf(1)
	}
	return cfl * minSpacing / vmax
}

// L2Error returns the relative L2 error of the tracer against a reference
// pointwise function.
func (a *Advection) L2Error(ref func(p mesh.Vec3) float64) float64 {
	g := a.G
	var num, den float64
	for i, w := range g.Mass {
		r := ref(g.Pos[i])
		d := a.Q[i] - r
		num += w * d * d
		den += w * r * r
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
