package seam

import (
	"fmt"
	"math"

	"sfccube/internal/mesh"
)

// Point location and interpolation: evaluating spectral element fields at
// arbitrary points on the sphere, e.g. to produce the regular lat-lon output
// grids climate diagnostics consume. Location inverts the equiangular
// gnomonic map analytically (no search); evaluation is tensor-product
// Lagrange interpolation on the element's GLL nodes, which is exact for the
// polynomial space the solution lives in.

// Locate returns the element containing the unit-direction point p together
// with the element-local GLL reference coordinates (xi, eta) in [-1, 1].
func (g *Grid) Locate(p mesh.Vec3) (e mesh.ElemID, xi, eta float64, err error) {
	n := p.Norm()
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("seam: cannot locate the zero vector")
	}
	d := p.Scale(1 / n)
	// Face: the axis with the largest |component| under the face frames.
	bestFace := mesh.Face(0)
	best := math.Inf(-1)
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		c := mesh.SpherePoint(f, 0, 0)
		if dot := d.Dot(c); dot > best {
			best = dot
			bestFace = f
		}
	}
	// Invert the gnomonic map on that face: with frame (c, u, v),
	// x = (d.u)/(d.c), y = (d.v)/(d.c); angles alpha = atan(x) etc.
	c := mesh.SpherePoint(bestFace, 0, 0)
	u := mesh.CubePoint(bestFace, 1, 0).Sub(mesh.CubePoint(bestFace, 0, 0))
	v := mesh.CubePoint(bestFace, 0, 1).Sub(mesh.CubePoint(bestFace, 0, 0))
	dc := d.Dot(c)
	if dc <= 0 {
		return 0, 0, 0, fmt.Errorf("seam: point projects outside face %v", bestFace)
	}
	alpha := math.Atan2(d.Dot(u), dc)
	beta := math.Atan2(d.Dot(v), dc)
	ne := g.M.Ne()
	cell := func(t float64) (int, float64) {
		// Element index and local angle offset for angle t in [-pi/4, pi/4].
		s := (t + math.Pi/4) / g.DAlpha
		i := int(math.Floor(s))
		if i < 0 {
			i = 0
		}
		if i >= ne {
			i = ne - 1
		}
		return i, 2*(s-float64(i)) - 1 // reference coordinate in [-1, 1]
	}
	ei, x := cell(alpha)
	ej, y := cell(beta)
	return g.M.ID(bestFace, ei, ej), clamp1(x), clamp1(y), nil
}

func clamp1(x float64) float64 {
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}

// lagrangeWeights evaluates the GLL Lagrange cardinal functions at reference
// coordinate x into w.
func (g *GLL) lagrangeWeights(x float64, w []float64) {
	np := g.Np()
	for i := 0; i < np; i++ {
		l := 1.0
		for j := 0; j < np; j++ {
			if j != i {
				l *= (x - g.Points[j]) / (g.Points[i] - g.Points[j])
			}
		}
		w[i] = l
	}
}

// Eval interpolates the scalar field q at the unit-direction point p.
func (g *Grid) Eval(q []float64, p mesh.Vec3) (float64, error) {
	e, xi, eta, err := g.Locate(p)
	if err != nil {
		return 0, err
	}
	np := g.Np
	wx := make([]float64, np)
	wy := make([]float64, np)
	g.GLL.lagrangeWeights(xi, wx)
	g.GLL.lagrangeWeights(eta, wy)
	qe := q[int(e)*np*np:]
	var sum float64
	for b := 0; b < np; b++ {
		var row float64
		for a := 0; a < np; a++ {
			row += wx[a] * qe[b*np+a]
		}
		sum += wy[b] * row
	}
	return sum, nil
}

// LatLonGrid samples the scalar field q on a regular nlat x nlon grid
// (latitude from -90 to 90 degrees inclusive at cell centres, longitude from
// 0 to 360 exclusive) and returns out[j][i] = q(lat_j, lon_i).
func (g *Grid) LatLonGrid(q []float64, nlat, nlon int) ([][]float64, error) {
	if nlat < 1 || nlon < 1 {
		return nil, fmt.Errorf("seam: grid dimensions must be positive")
	}
	out := make([][]float64, nlat)
	for j := 0; j < nlat; j++ {
		out[j] = make([]float64, nlon)
		lat := -math.Pi/2 + math.Pi*(float64(j)+0.5)/float64(nlat)
		for i := 0; i < nlon; i++ {
			lon := 2 * math.Pi * float64(i) / float64(nlon)
			p := mesh.Vec3{
				X: math.Cos(lat) * math.Cos(lon),
				Y: math.Cos(lat) * math.Sin(lon),
				Z: math.Sin(lat),
			}
			v, err := g.Eval(q, p)
			if err != nil {
				return nil, err
			}
			out[j][i] = v
		}
	}
	return out, nil
}
