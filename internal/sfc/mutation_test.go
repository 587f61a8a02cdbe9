package sfc_test

import (
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

// TestCurveOraclesNotVacuous is the internal/check mutation idiom applied to
// the curve: since the inverse became a descent, check.ValidateCurve and
// check.ValidateCubeCurve compare two computations — the order the recursion
// wrote against the rank the descent finds — that share only the motif. So a
// defect in what they share must break continuity, and a defect in what only
// one reads must break the round trip; both oracles must say so, and accept
// the curves again once the tables are restored.
func TestCurveOraclesNotVacuous(t *testing.T) {
	const ne = 36
	m, err := mesh.New(ne)
	if err != nil {
		t.Fatal(err)
	}
	// Hilbert, Hilbert, Peano, Peano: both motifs occur above the leaf level
	// (where a child orientation matters) and under the orientations the
	// levels above accumulate.
	sched, err := sfc.ScheduleFor(ne, sfc.HilbertFirst)
	if err != nil {
		t.Fatal(err)
	}
	validate := func() (flat, cube error) {
		flat = check.ValidateCurve(sfc.Generate(sched))
		cc, err := sfc.NewCubeCurve(m, sched)
		if err != nil {
			t.Fatal(err)
		}
		return flat, check.ValidateCubeCurve(cc, true)
	}
	pristine := func(when string) {
		t.Helper()
		if flat, cube := validate(); flat != nil || cube != nil {
			t.Fatalf("%s: pristine curves rejected: %v / %v", when, flat, cube)
		}
	}
	pristine("before")

	for _, mut := range []struct {
		name   string
		mutate func() (restore func())
	}{
		// A wrong child orientation reaches recursion and descent alike:
		// they still agree with each other, and the curve tears.
		{"hilbert motif child", func() func() { return sfc.MutateMotifChild(sfc.Hilbert, 1, sfc.Rotate180) }},
		{"peano motif child", func() func() { return sfc.MutateMotifChild(sfc.Peano, 4, sfc.Transpose) }},
		// A wrong digit reaches the descent only: the order is intact and
		// continuous, and Rank no longer inverts it.
		{"hilbert digit", func() func() { return sfc.MutateDigit(sfc.Hilbert, sfc.Identity, 1, 0) }},
		{"peano digit", func() func() { return sfc.MutateDigit(sfc.Peano, sfc.Transpose, 4, 8) }},
	} {
		restore := mut.mutate()
		flat, cube := validate()
		restore()
		if flat == nil {
			t.Errorf("%s: ValidateCurve accepted the mutant", mut.name)
		}
		if cube == nil {
			t.Errorf("%s: ValidateCubeCurve accepted the mutant", mut.name)
		}
		pristine("after " + mut.name)
	}
}
