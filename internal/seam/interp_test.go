package seam

import (
	"math"
	"testing"
	"testing/quick"

	"sfccube/internal/mesh"
)

// Locate must return the element whose centre is nearest when queried at
// element centres, with reference coordinates near zero... more precisely:
// locating each GLL point must return its own element (or a neighbour for
// boundary points) and reference coordinates that reproduce the point.
func TestLocateRoundTrip(t *testing.T) {
	g := testGrid(t, 3, 5)
	for e := 0; e < g.NumElems(); e += 7 {
		// Interior points only (boundary points belong to two elements).
		np := g.Np
		for _, idx := range []int{np + 1, 2*np + 3, (np-2)*np + (np - 2)} {
			p := g.Pos[e*np*np+idx]
			le, xi, eta, err := g.Locate(p)
			if err != nil {
				t.Fatal(err)
			}
			if int(le) != e {
				t.Fatalf("point of elem %d located in elem %d", e, le)
			}
			if xi < -1 || xi > 1 || eta < -1 || eta > 1 {
				t.Fatalf("reference coords out of range: %v %v", xi, eta)
			}
		}
	}
}

func TestLocateZeroVector(t *testing.T) {
	g := testGrid(t, 2, 3)
	if _, _, _, err := g.Locate(mesh.Vec3{}); err == nil {
		t.Error("zero vector accepted")
	}
}

// Eval must reproduce GLL nodal values exactly (Lagrange cardinality) and
// interpolate smooth fields with spectral accuracy.
func TestEvalReproducesNodalValues(t *testing.T) {
	g := testGrid(t, 2, 5)
	q := g.Field()
	f := func(p mesh.Vec3) float64 { return p.X/g.Radius + 2*p.Y/g.Radius*p.Z/g.Radius }
	for i, p := range g.Pos {
		q[i] = f(p)
	}
	np := g.Np
	npts := np * np
	for e := 0; e < g.NumElems(); e += 5 {
		idx := 2*np + 2 // interior node
		got, err := g.Eval(q, g.Pos[e*npts+idx])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-q[e*npts+idx]) > 1e-10 {
			t.Fatalf("nodal value not reproduced: %v vs %v", got, q[e*npts+idx])
		}
	}
}

// Property: evaluating a smooth global function at random points on the
// sphere matches the analytic value to spectral accuracy.
func TestEvalSpectralAccuracyProperty(t *testing.T) {
	g := testGrid(t, 3, 7)
	f := func(p mesh.Vec3) float64 {
		x, y, z := p.X/g.Radius, p.Y/g.Radius, p.Z/g.Radius
		return math.Sin(2*x) + math.Cos(y+z)
	}
	q := g.Field()
	for i, p := range g.Pos {
		q[i] = f(p)
	}
	check := func(rawA, rawB uint16) bool {
		lat := math.Pi * (float64(rawA)/65535.0 - 0.5) * 0.998
		lon := 2 * math.Pi * float64(rawB) / 65535.0
		p := mesh.Vec3{
			X: g.Radius * math.Cos(lat) * math.Cos(lon),
			Y: g.Radius * math.Cos(lat) * math.Sin(lon),
			Z: g.Radius * math.Sin(lat),
		}
		got, err := g.Eval(q, p)
		if err != nil {
			return false
		}
		return math.Abs(got-f(p)) < 1e-5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatLonGrid(t *testing.T) {
	g := testGrid(t, 2, 6)
	q := g.Field()
	// q = sin(lat): latitude bands.
	for i, p := range g.Pos {
		q[i] = p.Z / g.Radius
	}
	out, err := g.LatLonGrid(q, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || len(out[0]) != 20 {
		t.Fatal("grid shape wrong")
	}
	for j := 0; j < 10; j++ {
		lat := -math.Pi/2 + math.Pi*(float64(j)+0.5)/10
		for i := 0; i < 20; i++ {
			if math.Abs(out[j][i]-math.Sin(lat)) > 1e-6 {
				t.Fatalf("lat band %d lon %d: %v, want %v", j, i, out[j][i], math.Sin(lat))
			}
		}
	}
	if _, err := g.LatLonGrid(q, 0, 5); err == nil {
		t.Error("nlat=0 accepted")
	}
}
