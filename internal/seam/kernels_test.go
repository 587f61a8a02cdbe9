package seam

import (
	"math/rand"
	"testing"
)

// TestDiffKernelSpecializationParity locks the summation-order contract of
// kernels.go: the unrolled Np=8 kernels must be bitwise interchangeable with
// the generic ones, because the grid dispatch (DiffAlpha/DiffBeta) picks one
// or the other by Np and the solver's bitwise-reproducibility guarantees
// must not depend on that choice.
func TestDiffKernelSpecializationParity(t *testing.T) {
	gll, err := NewGLL(7) // np = 8, the specialized order
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const np, npts = 8, 64
	u := make([]float64, npts)
	for trial := 0; trial < 50; trial++ {
		for i := range u {
			u[i] = rng.NormFloat64() * 1e3
		}
		scale := rng.NormFloat64()

		genA := make([]float64, npts)
		specA := make([]float64, npts)
		diffAlphaGeneric(np, gll.Dt, u, genA, scale)
		diffAlpha8(gll.D, u, specA, scale)
		genB := make([]float64, npts)
		specB := make([]float64, npts)
		diffBetaGeneric(np, gll.D, u, genB, scale)
		diffBeta8(gll.D, u, specB, scale)

		for i := 0; i < npts; i++ {
			if genA[i] != specA[i] {
				t.Fatalf("trial %d: alpha kernels differ at %d: generic %v, np8 %v",
					trial, i, genA[i], specA[i])
			}
			if genB[i] != specB[i] {
				t.Fatalf("trial %d: beta kernels differ at %d: generic %v, np8 %v",
					trial, i, genB[i], specB[i])
			}
		}
	}
}

// TestDiffKernelsZeroAlloc asserts the differentiation hot path never
// allocates — neither the specialized Np=8 route nor the generic one (here
// Np=5), including the combined DiffAlphaBeta entry point used by the RHS.
func TestDiffKernelsZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"np8", 7}, {"generic", 4}} {
		g := testGrid(t, 2, tc.n)
		npts := g.PointsPerElem()
		u := make([]float64, npts)
		for i := range u {
			u[i] = float64(i)
		}
		dua := make([]float64, npts)
		dub := make([]float64, npts)
		if n := testing.AllocsPerRun(100, func() {
			g.DiffAlphaBeta(u, dua, dub)
			g.DiffAlpha(u, dua)
			g.DiffBeta(u, dub)
		}); n != 0 {
			t.Errorf("%s: differentiation allocated %v times per run, want 0", tc.name, n)
		}
	}
}

// The fused derivative kernel must be bitwise identical to the separate
// DiffAlpha / DiffBeta calls it replaces on the hot path.
func TestDiffAlphaBetaMatchesSeparate(t *testing.T) {
	g := testGrid(t, 2, 6)
	npts := g.PointsPerElem()
	rng := rand.New(rand.NewSource(3))
	u := make([]float64, npts)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	daS, dbS := make([]float64, npts), make([]float64, npts)
	daF, dbF := make([]float64, npts), make([]float64, npts)
	g.DiffAlpha(u, daS)
	g.DiffBeta(u, dbS)
	g.DiffAlphaBeta(u, daF, dbF)
	for i := 0; i < npts; i++ {
		if daS[i] != daF[i] || dbS[i] != dbF[i] {
			t.Fatalf("fused derivative differs at point %d: (%v,%v) vs (%v,%v)",
				i, daF[i], dbF[i], daS[i], dbS[i])
		}
	}
}
