package seam

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
)

func testGrid(t testing.TB, ne, n int) *Grid {
	t.Helper()
	g, err := NewGrid(ne, n, EarthRadius, EarthOmega)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(0, 4, 1, 0); err == nil {
		t.Error("ne=0 accepted")
	}
	if _, err := NewGrid(2, 0, 1, 0); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := NewGrid(2, 4, -1, 0); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestGridPointsOnSphere(t *testing.T) {
	g := testGrid(t, 3, 4)
	for i, p := range g.Pos {
		if r := p.Norm(); math.Abs(r-EarthRadius) > 1e-6 {
			t.Fatalf("point %d radius %v", i, r)
		}
	}
}

// The covariant basis vectors must be tangent to the sphere and match
// finite-difference derivatives of the position.
func TestGridBasisVectors(t *testing.T) {
	g := testGrid(t, 2, 5)
	npts := g.PointsPerElem()
	for _, e := range []int{0, 7, 13, 23} {
		for _, i := range []int{0, 17, g.PointsPerElem() - 1} {
			p := g.Pos[e*npts+i]
			if math.Abs(g.Ea[e*npts+i].Dot(p))/EarthRadius/EarthRadius > 1e-10 {
				t.Errorf("Ea not tangent at elem %d point %d", e, i)
			}
			if math.Abs(g.Eb[e*npts+i].Dot(p))/EarthRadius/EarthRadius > 1e-10 {
				t.Errorf("Eb not tangent at elem %d point %d", e, i)
			}
		}
	}
	// Finite difference check at a generic point of element 5.
	id := mesh.ElemID(5)
	f := g.M.Elem(id).Face
	a, b := 2, 3
	alpha, beta := g.elemAngles(id, a, b)
	h := 1e-6
	pPlus, _, _ := g.pointAndBasis(f, alpha+h, beta)
	pMinus, _, _ := g.pointAndBasis(f, alpha-h, beta)
	fd := pPlus.Sub(pMinus).Scale(1 / (2 * h))
	_, ea, _ := g.pointAndBasis(f, alpha, beta)
	if fd.Sub(ea).Norm() > 1e-3*ea.Norm() {
		t.Errorf("Ea does not match finite difference: %v vs %v", ea, fd)
	}
}

// The metric determinant integrates to the area of the sphere.
func TestGridAreaIntegral(t *testing.T) {
	// sqrt(g) is smooth but not polynomial, so the quadrature error decays
	// spectrally with the degree; the tolerances reflect that.
	cases := []struct {
		ne, n int
		tol   float64
	}{{2, 4, 1e-6}, {3, 6, 1e-9}, {4, 7, 1e-11}}
	prevErr := math.Inf(1)
	for _, cfg := range cases {
		g := testGrid(t, cfg.ne, cfg.n)
		one := g.Field()
		for i := range one {
			one[i] = 1
		}
		got := g.Integrate(one)
		want := 4 * math.Pi * EarthRadius * EarthRadius
		rel := math.Abs(got-want) / want
		if rel > cfg.tol {
			t.Errorf("ne=%d n=%d: area %v, want %v (rel err %v)",
				cfg.ne, cfg.n, got, want, rel)
		}
		if rel > prevErr {
			t.Errorf("quadrature error did not decay with resolution: %v -> %v", prevErr, rel)
		}
		prevErr = rel
	}
}

// The contravariant metric must invert the covariant one.
func TestGridMetricInverse(t *testing.T) {
	g := testGrid(t, 2, 4)
	npts := g.PointsPerElem()
	for e := 0; e < g.NumElems(); e += 5 {
		for i := 0; i < g.PointsPerElem(); i += 3 {
			a11 := g.G11[e*npts+i]*g.GI11[e*npts+i] + g.G12[e*npts+i]*g.GI12[e*npts+i]
			a12 := g.G11[e*npts+i]*g.GI12[e*npts+i] + g.G12[e*npts+i]*g.GI22[e*npts+i]
			a22 := g.G12[e*npts+i]*g.GI12[e*npts+i] + g.G22[e*npts+i]*g.GI22[e*npts+i]
			if math.Abs(a11-1) > 1e-10 || math.Abs(a12) > 1e-10 || math.Abs(a22-1) > 1e-10 {
				t.Fatalf("metric inverse wrong at elem %d point %d: %v %v %v", e, i, a11, a12, a22)
			}
		}
	}
}

// Coriolis parameter: 2*Omega at the north pole, 0 on the equator.
func TestGridCoriolis(t *testing.T) {
	g := testGrid(t, 3, 4)
	npts := g.PointsPerElem()
	var foundPole, foundEq bool
	for e := 0; e < g.NumElems(); e++ {
		for i := 0; i < g.PointsPerElem(); i++ {
			z := g.Pos[e*npts+i].Z / EarthRadius
			f := g.Cor[e*npts+i]
			if math.Abs(f-2*EarthOmega*z) > 1e-16+1e-12*math.Abs(f) {
				t.Fatalf("Coriolis wrong at elem %d point %d", e, i)
			}
			if z > 0.999 {
				foundPole = true
			}
			if math.Abs(z) < 1e-9 {
				foundEq = true
			}
		}
	}
	if !foundPole || !foundEq {
		t.Error("grid has no points near pole/equator; test coverage broken")
	}
}

// Spectral derivatives on the grid must be exact for polynomials in the
// element coordinates.
func TestGridDifferentiation(t *testing.T) {
	g := testGrid(t, 2, 6)
	np := g.Np
	u := make([]float64, np*np)
	du := make([]float64, np*np)
	// Build u = alpha^2 * beta on element 9 and check d/dalpha = 2 alpha beta.
	id := mesh.ElemID(9)
	for b := 0; b < np; b++ {
		for a := 0; a < np; a++ {
			alpha, beta := g.elemAngles(id, a, b)
			u[b*np+a] = alpha * alpha * beta
		}
	}
	g.DiffAlpha(u, du)
	for b := 0; b < np; b++ {
		for a := 0; a < np; a++ {
			alpha, beta := g.elemAngles(id, a, b)
			want := 2 * alpha * beta
			if math.Abs(du[b*np+a]-want) > 1e-10 {
				t.Fatalf("d/dalpha wrong at (%d,%d): %v want %v", a, b, du[b*np+a], want)
			}
		}
	}
	g.DiffBeta(u, du)
	for b := 0; b < np; b++ {
		for a := 0; a < np; a++ {
			alpha, _ := g.elemAngles(id, a, b)
			want := alpha * alpha
			if math.Abs(du[b*np+a]-want) > 1e-10 {
				t.Fatalf("d/dbeta wrong at (%d,%d): %v want %v", a, b, du[b*np+a], want)
			}
		}
	}
}
