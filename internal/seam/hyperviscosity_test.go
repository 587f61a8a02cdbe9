package seam

import (
	"math"
	"slices"
	"testing"

	"sfccube/internal/mesh"
)

// The Laplacian of a constant is zero and the Laplacian of the first
// spherical harmonic Y_1 (= z/R) is -2/R^2 * Y_1.
func TestLaplacianEigenfunction(t *testing.T) {
	g := testGrid(t, 4, 7)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Field()
	out := g.Field()
	// Constant.
	for i := range q {
		q[i] = 5
	}
	sw.Laplacian(q, out)
	for _, v := range out {
		if math.Abs(v) > 1e-14 {
			t.Fatalf("Laplacian of constant = %v", v)
		}
	}
	// Y_1 = z/R: eigenvalue -l(l+1)/R^2 = -2/R^2.
	for i, p := range g.Pos {
		q[i] = p.Z / g.Radius
	}
	sw.Laplacian(q, out)
	want := -2.0 / (g.Radius * g.Radius)
	var worst float64
	for i := range out {
		rel := math.Abs(out[i]-want*q[i]) / math.Abs(want)
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1e-4 {
		t.Errorf("Y1 eigenvalue relative error %v", worst)
	}
}

// Hyperviscosity must damp grid-scale noise strongly while leaving a smooth
// field nearly untouched (scale selectivity).
func TestHyperviscosityScaleSelective(t *testing.T) {
	g := testGrid(t, 3, 6)
	smooth, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	// Smooth field: large-scale harmonic. Noisy field: same plus
	// alternating-sign noise at the grid scale.
	base := func(p mesh.Vec3) float64 { return 100 * (p.Z / g.Radius) }
	smooth.SetState(func(mesh.Vec3) mesh.Vec3 { return mesh.Vec3{} }, base)
	noisy.SetState(func(mesh.Vec3) mesh.Vec3 { return mesh.Vec3{} }, base)
	s := uint64(99)
	for i := range noisy.Phi {
		s = s*6364136223846793005 + 1442695040888963407
		noisy.Phi[i] += float64(int64(s>>33)%100-50) / 50.0
	}
	noisy.Dss.Apply(noisy.Phi)
	noiseBefore := diffNorm(g, noisy.Phi, smooth.Phi)

	dt := 100.0
	nu := noisy.StableHyperviscosity(dt)
	smoothBefore := slices.Clone(smooth.Phi)
	for it := 0; it < 50; it++ {
		noisy.ApplyHyperviscosity(dt, nu)
		smooth.ApplyHyperviscosity(dt, nu)
	}
	noiseAfter := diffNorm(g, noisy.Phi, smooth.Phi)
	smoothChange := diffNorm(g, smooth.Phi, smoothBefore)

	removed := noiseBefore - noiseAfter
	if removed <= 0.02*noiseBefore {
		t.Errorf("grid-scale noise not damped: %v -> %v", noiseBefore, noiseAfter)
	}
	// Scale selectivity: the resolved field must change by far less than
	// the amount of noise removed.
	if smoothChange > 0.05*removed {
		t.Errorf("smooth field changed by %v while removing %v of noise: not scale selective",
			smoothChange, removed)
	}
}

// Applying hyperviscosity to the Williamson-2 steady state must not
// destabilise it.
func TestHyperviscosityKeepsWilliamson2Steady(t *testing.T) {
	g := testGrid(t, 3, 5)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400)
	wind, phi := Williamson2(g.Radius, g.Omega, u0, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.4)
	nu := sw.StableHyperviscosity(dt)
	for s := 0; s < 20; s++ {
		sw.Step(dt)
		sw.ApplyHyperviscosity(dt, nu)
	}
	if errL2 := sw.PhiL2Error(phi); math.IsNaN(errL2) || errL2 > 1e-4 {
		t.Errorf("steady state error with hyperviscosity: %v", errL2)
	}
}

func diffNorm(g *Grid, a, b []float64) float64 {
	var sum float64
	for i, w := range g.Mass {
		d := a[i] - b[i]
		sum += d * d * w
	}
	return math.Sqrt(sum)
}
