package seam

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
)

// Rotated Williamson 2 at alpha = pi/4: the flow crosses four cube corners
// and every face. With the rotation axis tilted along with the flow, the
// state must stay steady -- the strongest cross-face test of metric terms,
// vector DSS and corner assembly.
func TestShallowWaterWilliamson2Rotated(t *testing.T) {
	g := testGrid(t, 4, 6)
	alpha := math.Pi / 4
	if err := g.SetRotationAxis(mesh.Vec3{X: math.Sin(alpha), Y: 0, Z: math.Cos(alpha)}); err != nil {
		t.Fatal(err)
	}
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400)
	wind, phi := Williamson2Rotated(g.Radius, g.Omega, u0, 2.94e4, alpha)
	sw.SetState(wind, phi)

	dt := sw.MaxStableDt(0.4)
	T := 6 * 3600.0
	steps := int(math.Ceil(T / dt))
	dt = T / float64(steps)
	for s := 0; s < steps; s++ {
		sw.Step(dt)
	}
	errL2 := sw.PhiL2Error(phi)
	if math.IsNaN(errL2) || errL2 > 1e-6 {
		t.Errorf("rotated Williamson 2 error %v after 6 h, want < 1e-6", errL2)
	}
}

// Alpha = 0 must coincide with the unrotated initial condition.
func TestWilliamson2RotatedZeroAlpha(t *testing.T) {
	w0, p0 := Williamson2(EarthRadius, EarthOmega, 38, 2.94e4)
	wr, pr := Williamson2Rotated(EarthRadius, EarthOmega, 38, 2.94e4, 0)
	for _, pt := range []mesh.Vec3{
		{X: EarthRadius, Y: 0, Z: 0},
		{X: 0, Y: EarthRadius / math.Sqrt2, Z: EarthRadius / math.Sqrt2},
	} {
		if w0(pt).Sub(wr(pt)).Norm() > 1e-9 {
			t.Errorf("wind differs at %v", pt)
		}
		if math.Abs(p0(pt)-pr(pt)) > 1e-9 {
			t.Errorf("phi differs at %v", pt)
		}
	}
}

// Energy and potential enstrophy are conserved invariants of the continuous
// system; the discrete core must hold them to high relative accuracy over a
// short integration.
func TestEnergyAndEnstrophyConservation(t *testing.T) {
	g := testGrid(t, 3, 6)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400)
	wind, phi := Williamson2(g.Radius, g.Omega, u0, 2.94e4)
	sw.SetState(wind, phi)

	e0 := sw.TotalEnergy()
	q0 := sw.PotentialEnstrophy()
	if e0 <= 0 || q0 <= 0 {
		t.Fatalf("non-positive invariants: E=%v Q=%v", e0, q0)
	}
	dt := sw.MaxStableDt(0.4)
	for s := 0; s < 30; s++ {
		sw.Step(dt)
	}
	if rel := math.Abs(sw.TotalEnergy()-e0) / e0; rel > 1e-8 {
		t.Errorf("energy drifted by %v", rel)
	}
	if rel := math.Abs(sw.PotentialEnstrophy()-q0) / q0; rel > 1e-7 {
		t.Errorf("potential enstrophy drifted by %v", rel)
	}
}

// SetRotationAxis normalises its argument and affects only the Coriolis
// field.
func TestSetRotationAxis(t *testing.T) {
	g := testGrid(t, 2, 3)
	if err := g.SetRotationAxis(mesh.Vec3{}); err == nil {
		t.Error("SetRotationAxis(0) did not return an error")
	}
	if err := g.SetRotationAxis(mesh.Vec3{X: 0, Y: 0, Z: 5}); err != nil { // unnormalised +Z
		t.Fatal(err)
	}
	for i, p := range g.Pos {
		want := 2 * g.Omega * p.Z / g.Radius
		if math.Abs(g.Cor[i]-want) > 1e-15+1e-12*math.Abs(want) {
			t.Fatalf("Cor wrong after +Z reset")
		}
	}
	if err := g.SetRotationAxis(mesh.Vec3{X: 1, Y: 0, Z: 0}); err != nil {
		t.Fatal(err)
	}
	// Coriolis must now vanish on the great circle x=0.
	found := false
	for i, p := range g.Pos {
		if math.Abs(p.X) < 1e-6*g.Radius {
			found = true
			if math.Abs(g.Cor[i]) > 1e-15 {
				t.Fatalf("Cor %v nonzero on the x=0 circle", g.Cor[i])
			}
		}
	}
	if !found {
		t.Skip("no grid point on x=0 at this resolution")
	}
}
