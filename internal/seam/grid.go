package seam

import (
	"fmt"
	"math"

	"sfccube/internal/mesh"
)

// EarthRadius is the radius used by the standard shallow-water test cases
// (Williamson et al. 1992), in metres.
const EarthRadius = 6.37122e6

// EarthOmega is the Earth's rotation rate in 1/s.
const EarthOmega = 7.292e-5

// Grid is the spectral element grid: a cubed-sphere mesh with an Np x Np
// GLL grid inside every element, plus all geometric factors of the
// equiangular gnomonic mapping evaluated at every GLL point.
//
// Index conventions: element point (a, b), with a the alpha index and b the
// beta index, is stored at flat index b*Np + a. Coordinate 1 is alpha,
// coordinate 2 is beta.
//
// Memory layout: every per-point array is one contiguous element-major slab
// ([]T of length K*Np*Np). Point (e, idx) lives at slab offset e*Np*Np + idx,
// so a flat element-point id — the form the DSS exchange plan stores — is the
// slab offset itself.
type Grid struct {
	M      *mesh.Mesh
	GLL    *GLL
	Radius float64 // sphere radius (m)
	Omega  float64 // rotation rate (1/s); Coriolis f = 2*Omega*sin(lat)

	Np int // GLL points per element edge

	Pos   []mesh.Vec3 // position on the sphere of radius Radius
	Ea    []mesh.Vec3 // covariant basis vector d(Pos)/d(alpha)
	Eb    []mesh.Vec3 // covariant basis vector d(Pos)/d(beta)
	SqrtG []float64   // area Jacobian sqrt(det g)
	G11   []float64   // covariant metric g_11 = Ea.Ea
	G12   []float64   // covariant metric g_12 = Ea.Eb
	G22   []float64   // covariant metric g_22 = Eb.Eb
	GI11  []float64   // contravariant metric (inverse of g)
	GI12  []float64
	GI22  []float64
	Cor   []float64 // Coriolis parameter f = 2*Omega*z/Radius

	// RSqrtG is the precomputed reciprocal 1/SqrtG. The RHS hot loops
	// multiply by it instead of dividing by the Jacobian (a ~14 cycle divide
	// per point otherwise); both the sequential and parallel paths use it, so
	// they stay bitwise identical to each other.
	RSqrtG []float64

	// Mass is the precomputed quadrature mass of every point:
	// w_a * w_b * sqrtG * (DAlpha/2)^2.
	Mass []float64

	// DAlpha is the angular width of one element, pi/2 / Ne. The GLL
	// reference derivative d/dxi converts to d/dalpha via 2/DAlpha.
	DAlpha float64
}

// NewGrid builds the spectral element grid for a cubed-sphere with ne
// elements per face edge and polynomial degree n (np = n+1 points per edge),
// on a sphere of the given radius and rotation rate.
func NewGrid(ne, n int, radius, omega float64) (*Grid, error) {
	m, err := mesh.New(ne)
	if err != nil {
		return nil, err
	}
	gll, err := NewGLL(n)
	if err != nil {
		return nil, err
	}
	if radius <= 0 {
		return nil, fmt.Errorf("seam: radius must be positive, got %v", radius)
	}
	g := &Grid{
		M:      m,
		GLL:    gll,
		Radius: radius,
		Omega:  omega,
		Np:     gll.Np(),
		DAlpha: math.Pi / 2 / float64(ne),
	}
	g.buildGeometry()
	return g, nil
}

// NumElems returns the number of spectral elements.
func (g *Grid) NumElems() int { return g.M.NumElems() }

// PointsPerElem returns Np*Np.
func (g *Grid) PointsPerElem() int { return g.Np * g.Np }

// elemAngles returns the equiangular coordinates (alpha, beta) of GLL point
// (a, b) of element e.
func (g *Grid) elemAngles(e mesh.ElemID, a, b int) (alpha, beta float64) {
	el := g.M.Elem(e)
	a0 := -math.Pi/4 + g.DAlpha*float64(el.I)
	b0 := -math.Pi/4 + g.DAlpha*float64(el.J)
	alpha = a0 + g.DAlpha*(g.GLL.Points[a]+1)/2
	beta = b0 + g.DAlpha*(g.GLL.Points[b]+1)/2
	return alpha, beta
}

// pointAndBasis evaluates the sphere position and the covariant basis
// vectors dP/dalpha, dP/dbeta of face f at equiangular coordinates
// (alpha, beta), scaled to the grid's radius.
func (g *Grid) pointAndBasis(f mesh.Face, alpha, beta float64) (p, ea, eb mesh.Vec3) {
	x := math.Tan(alpha)
	y := math.Tan(beta)
	c := mesh.CubePoint(f, x, y)
	r := c.Norm()
	p = c.Scale(g.Radius / r)
	// dC/dalpha = (1+x^2) * u, dC/dbeta = (1+y^2) * v where (u, v) is the
	// face frame; dP/ds = R * (C'/r - C (C.C')/r^3).
	u := mesh.CubePoint(f, 1, 0).Sub(mesh.CubePoint(f, 0, 0)) // frame u axis
	v := mesh.CubePoint(f, 0, 1).Sub(mesh.CubePoint(f, 0, 0)) // frame v axis
	dca := u.Scale(1 + x*x)
	dcb := v.Scale(1 + y*y)
	proj := func(dc mesh.Vec3) mesh.Vec3 {
		return dc.Scale(1 / r).Sub(c.Scale(c.Dot(dc) / (r * r * r))).Scale(g.Radius)
	}
	return p, proj(dca), proj(dcb)
}

// buildGeometry fills every per-point geometric array.
func (g *Grid) buildGeometry() {
	np := g.Np
	npts := np * np
	for _, f := range []*[]float64{
		&g.SqrtG, &g.RSqrtG, &g.G11, &g.G12, &g.G22, &g.GI11, &g.GI12, &g.GI22, &g.Cor, &g.Mass,
	} {
		*f = g.Field()
	}
	n := len(g.Mass)
	g.Pos, g.Ea, g.Eb = make([]mesh.Vec3, n), make([]mesh.Vec3, n), make([]mesh.Vec3, n)
	for e := 0; e < g.NumElems(); e++ {
		id := mesh.ElemID(e)
		f := g.M.Elem(id).Face
		for b := 0; b < np; b++ {
			for a := 0; a < np; a++ {
				i := e*npts + b*np + a
				alpha, beta := g.elemAngles(id, a, b)
				p, ea, eb := g.pointAndBasis(f, alpha, beta)
				g.Pos[i], g.Ea[i], g.Eb[i] = p, ea, eb
				g11 := ea.Dot(ea)
				g12 := ea.Dot(eb)
				g22 := eb.Dot(eb)
				det := g11*g22 - g12*g12
				g.G11[i], g.G12[i], g.G22[i] = g11, g12, g22
				g.SqrtG[i] = math.Sqrt(det)
				g.RSqrtG[i] = 1 / g.SqrtG[i]
				g.GI11[i] = g22 / det
				g.GI12[i] = -g12 / det
				g.GI22[i] = g11 / det
				g.Cor[i] = 2 * g.Omega * p.Z / g.Radius // rotation about +Z
				g.Mass[i] = g.GLL.Wts[a] * g.GLL.Wts[b] * g.SqrtG[i] * (g.DAlpha / 2) * (g.DAlpha / 2)
			}
		}
	}
}

// SetRotationAxis re-evaluates the Coriolis parameter for a planet rotating
// about the given axis: f = 2*Omega*(p.axis)/Radius. The default axis is +Z;
// the rotated Williamson test cases tilt it together with the flow. The axis
// is normalised first; a zero axis is an error and leaves the grid unchanged.
func (g *Grid) SetRotationAxis(axis mesh.Vec3) error {
	n, err := axis.Normalize()
	if err != nil {
		return fmt.Errorf("seam: rotation axis: %w", err)
	}
	for i, p := range g.Pos {
		g.Cor[i] = 2 * g.Omega * p.Dot(n) / g.Radius
	}
	return nil
}

// Field allocates a scalar field on the grid: one value per GLL point per
// element, as one element-major slab of length K*Np*Np.
func (g *Grid) Field() []float64 {
	return make([]float64, g.NumElems()*g.PointsPerElem())
}

// DiffAlpha computes the alpha-derivative of the element field u (length
// Np*Np) into du, in physical angle units (1/radian). All derivative entry
// points route to the shared micro-kernels in kernels.go (with the Np = 8
// production order fully unrolled), so every caller — sequential solver,
// parallel runner, diagnostics — computes bitwise identical values.
func (g *Grid) DiffAlpha(u, du []float64) {
	scale := 2 / g.DAlpha
	if g.Np == 8 {
		diffAlpha8(g.GLL.D, u, du, scale)
		return
	}
	diffAlphaGeneric(g.Np, g.GLL.Dt, u, du, scale)
}

// DiffBeta computes the beta-derivative of the element field u into du, in
// physical angle units. Implemented as row-axpy accumulation (unit stride)
// rather than strided dot products; every output point receives its terms in
// ascending j, so the generic and specialized kernels agree bitwise.
func (g *Grid) DiffBeta(u, du []float64) {
	scale := 2 / g.DAlpha
	if g.Np == 8 {
		diffBeta8(g.GLL.D, u, du, scale)
		return
	}
	diffBetaGeneric(g.Np, g.GLL.D, u, du, scale)
}

// DiffAlphaBeta computes both the alpha- and beta-derivatives of the element
// field u (length Np*Np) into dua and dub in one fused call. It invokes the
// same kernels as DiffAlpha/DiffBeta, so the fused and separate forms are
// bitwise identical by construction.
func (g *Grid) DiffAlphaBeta(u, dua, dub []float64) {
	scale := 2 / g.DAlpha
	if g.Np == 8 {
		diffAlpha8(g.GLL.D, u, dua, scale)
		diffBeta8(g.GLL.D, u, dub, scale)
		return
	}
	diffAlphaGeneric(g.Np, g.GLL.Dt, u, dua, scale)
	diffBetaGeneric(g.Np, g.GLL.D, u, dub, scale)
}

// Integrate returns the integral of field q over the whole sphere using GLL
// quadrature.
func (g *Grid) Integrate(q []float64) float64 {
	var sum float64
	for i, v := range q {
		sum += v * g.Mass[i]
	}
	return sum
}
