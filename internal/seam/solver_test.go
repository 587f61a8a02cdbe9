package seam

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
)

// gaussianHill is a smooth bump centred at c on the sphere of radius r.
func gaussianHill(c mesh.Vec3, r float64) func(mesh.Vec3) float64 {
	return func(p mesh.Vec3) float64 {
		d := p.Sub(c).Norm() / r
		return math.Exp(-16 * d * d)
	}
}

// rotateZ rotates p about the +Z axis by angle theta.
func rotateZ(p mesh.Vec3, theta float64) mesh.Vec3 {
	c, s := math.Cos(theta), math.Sin(theta)
	return mesh.Vec3{X: c*p.X - s*p.Y, Y: s*p.X + c*p.Y, Z: p.Z}
}

// Solid-body advection: after time T the tracer must equal the initial
// condition rotated by omega*T. This exercises derivatives, metric terms,
// wind projection and DSS together, including transport across cube edges.
func TestAdvectionSolidBodyRotation(t *testing.T) {
	g := testGrid(t, 4, 6)
	// One radian per "day" of 86400 s, about the axis tilted so the bump
	// crosses cube faces and corners.
	omega := 2 * math.Pi / 86400.0
	w := mesh.Vec3{X: 0, Y: 0, Z: omega}
	adv := NewAdvection(g, w)
	// Centre on the equator at the middle of face +X, so the bump crosses
	// the +X/+Y cube edge during the integration.
	c := mesh.Vec3{X: g.Radius, Y: 0, Z: 0}
	q0 := gaussianHill(c, g.Radius)
	adv.SetTracer(q0)

	dt := adv.MaxStableDt(0.8)
	T := 86400.0 / 8 // one eighth revolution: 45 degrees
	steps := int(math.Ceil(T / dt))
	dt = T / float64(steps)
	for s := 0; s < steps; s++ {
		adv.Step(dt)
	}
	ref := func(p mesh.Vec3) float64 {
		// The solution at p equals the initial condition at the point
		// rotated backwards.
		return q0(rotateZ(p, -omega*T))
	}
	// The bump is narrow for this resolution (ne=4, degree 6); the
	// resolution-limited error is a few 1e-3. The spectral-convergence
	// test below checks that refining the degree drives it down.
	if err := adv.L2Error(ref); err > 5e-3 {
		t.Errorf("advection L2 error %v after 45 degrees, want < 5e-3", err)
	}
	if adv.Flops == 0 {
		t.Error("flop counter not incremented")
	}
}

// The advection operator must preserve a constant tracer exactly (the wind
// is non-divergent only in the continuous sense, but grad of a constant is
// identically zero pointwise).
func TestAdvectionPreservesConstant(t *testing.T) {
	g := testGrid(t, 2, 5)
	adv := NewAdvection(g, mesh.Vec3{Z: 1e-5})
	adv.SetTracer(func(mesh.Vec3) float64 { return 3.25 })
	for s := 0; s < 5; s++ {
		adv.Step(100)
	}
	for _, q := range adv.Q {
		if math.Abs(q-3.25) > 1e-10 {
			t.Fatalf("constant tracer drifted to %v", q)
		}
	}
}

// Spectral convergence: the advection error must fall rapidly as the
// polynomial degree grows.
func TestAdvectionSpectralConvergence(t *testing.T) {
	omega := 2 * math.Pi / 86400.0
	w := mesh.Vec3{X: 0, Y: 0, Z: omega}
	T := 86400.0 / 16
	var prev float64 = math.Inf(1)
	for _, n := range []int{3, 5, 7} {
		g := testGrid(t, 3, n)
		adv := NewAdvection(g, w)
		c := mesh.Vec3{X: g.Radius, Y: 0, Z: 0}
		q0 := gaussianHill(c, g.Radius)
		adv.SetTracer(q0)
		dt := adv.MaxStableDt(0.5)
		steps := int(math.Ceil(T / dt))
		dt = T / float64(steps)
		for s := 0; s < steps; s++ {
			adv.Step(dt)
		}
		errL2 := adv.L2Error(func(p mesh.Vec3) float64 { return q0(rotateZ(p, -omega*T)) })
		if errL2 > prev/2 {
			t.Errorf("degree %d: error %v did not drop below half of previous %v", n, errL2, prev)
		}
		prev = errL2
	}
}

// Williamson test case 2: steady geostrophic flow. The discrete solution
// must stay near the initial state and conserve mass.
func TestShallowWaterWilliamson2(t *testing.T) {
	g := testGrid(t, 4, 6)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400) // ~38.6 m/s
	gh0 := 2.94e4
	wind, phi := Williamson2(g.Radius, g.Omega, u0, gh0)
	sw.SetState(wind, phi)

	mass0 := sw.TotalMass()
	dt := sw.MaxStableDt(0.4)
	T := 6 * 3600.0 // six hours
	steps := int(math.Ceil(T / dt))
	dt = T / float64(steps)
	for s := 0; s < steps; s++ {
		sw.Step(dt)
	}
	errL2 := sw.PhiL2Error(phi)
	if math.IsNaN(errL2) || errL2 > 1e-6 {
		t.Errorf("Williamson 2 Phi error %v after 6 h, want < 1e-6", errL2)
	}
	mass1 := sw.TotalMass()
	if rel := math.Abs(mass1-mass0) / math.Abs(mass0); rel > 1e-10 {
		t.Errorf("mass drifted by %v", rel)
	}
	if sw.Flops == 0 {
		t.Error("flop counter not incremented")
	}
}

// A resting state with flat geopotential is an exact steady solution.
func TestShallowWaterStateOfRest(t *testing.T) {
	g := testGrid(t, 2, 4)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetState(
		func(mesh.Vec3) mesh.Vec3 { return mesh.Vec3{} },
		func(mesh.Vec3) float64 { return 1e4 },
	)
	dt := sw.MaxStableDt(0.4)
	for s := 0; s < 20; s++ {
		sw.Step(dt)
	}
	for i, phi := range sw.Phi {
		if math.Abs(phi-1e4) > 1e-6 {
			t.Fatalf("rest state Phi drifted to %v", phi)
		}
		if math.Abs(sw.V1[i]) > 1e-6*g.Radius || math.Abs(sw.V2[i]) > 1e-6*g.Radius {
			t.Fatalf("rest state velocity grew to %v, %v", sw.V1[i], sw.V2[i])
		}
	}
}

func TestMaxStableDtPositive(t *testing.T) {
	g := testGrid(t, 2, 4)
	sw, _ := NewShallowWater(g)
	wind, phi := Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.5)
	if !(dt > 0) || math.IsInf(dt, 1) {
		t.Errorf("MaxStableDt = %v", dt)
	}
	adv := NewAdvection(g, mesh.Vec3{Z: 1e-5})
	if d := adv.MaxStableDt(0.5); !(d > 0) || math.IsInf(d, 1) {
		t.Errorf("advection MaxStableDt = %v", d)
	}
}

func TestFlopFormulasPositiveAndMonotone(t *testing.T) {
	if diffFlops(8) <= diffFlops(4) {
		t.Error("diffFlops not monotone")
	}
	if rhsFlopsAdvection(10, 8) != 10*rhsFlopsAdvection(1, 8) {
		t.Error("advection flops not linear in element count")
	}
	if rhsFlopsShallowWater(10, 8) != 10*rhsFlopsShallowWater(1, 8) {
		t.Error("SW flops not linear in element count")
	}
	if StepFlopsShallowWater(8) <= 4*rhsFlopsShallowWater(1, 8) {
		t.Error("step flops must exceed 4 RHS evaluations")
	}
	if BoundaryExchangeBytes(8) != 64 {
		t.Error("boundary exchange bytes wrong")
	}
}

func BenchmarkShallowWaterStepNe8Np8(b *testing.B) {
	g, err := NewGrid(8, 7, EarthRadius, EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := NewShallowWater(g)
	if err != nil {
		b.Fatal(err)
	}
	wind, phi := Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Step(dt)
	}
}
