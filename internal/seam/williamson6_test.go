package seam

import (
	"math"
	"testing"
)

// The Rossby-Haurwitz wave (TC6) has no closed-form evolution; the discrete
// core is validated through its conserved integrals: mass exactly, energy
// and potential enstrophy to high relative accuracy over a short
// integration.
func TestWilliamson6Conservation(t *testing.T) {
	g := testGrid(t, 4, 6)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	wind, phi := Williamson6(g.Radius, g.Omega)
	sw.SetState(wind, phi)

	// Sanity of the initial state: positive geopotential everywhere and
	// winds below 150 m/s.
	for _, phi := range sw.Phi {
		if phi <= 0 {
			t.Fatalf("non-positive Phi %v", phi)
		}
	}

	mass0 := sw.TotalMass()
	e0 := sw.TotalEnergy()
	q0 := sw.PotentialEnstrophy()
	dt := sw.MaxStableDt(0.3)
	for s := 0; s < 40; s++ {
		sw.Step(dt)
	}
	if rel := math.Abs(sw.TotalMass()-mass0) / mass0; rel > 1e-12 {
		t.Errorf("TC6 mass drift %v", rel)
	}
	if rel := math.Abs(sw.TotalEnergy()-e0) / e0; rel > 1e-7 {
		t.Errorf("TC6 energy drift %v", rel)
	}
	if rel := math.Abs(sw.PotentialEnstrophy()-q0) / q0; rel > 1e-6 {
		t.Errorf("TC6 enstrophy drift %v", rel)
	}
	// No NaNs anywhere.
	for i, phi := range sw.Phi {
		if math.IsNaN(phi) || math.IsNaN(sw.V1[i]) {
			t.Fatal("NaN in TC6 state")
		}
	}
}

// The wave should actually move: after a few hours the field differs
// appreciably from the initial condition (guards against a frozen core
// passing the conservation test trivially).
func TestWilliamson6WaveMoves(t *testing.T) {
	g := testGrid(t, 3, 5)
	sw, _ := NewShallowWater(g)
	wind, phi := Williamson6(g.Radius, g.Omega)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.3)
	steps := int(6 * 3600 / dt)
	for s := 0; s < steps; s++ {
		sw.Step(dt)
	}
	if d := sw.PhiL2Error(phi); d < 1e-4 {
		t.Errorf("TC6 field barely moved after 6 h: %v", d)
	}
}
