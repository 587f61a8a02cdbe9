package core

import (
	"context"
	"runtime"
	"testing"

	"sfccube/internal/weights"
)

// TestCurveRunMemoryCeiling pins what one sfc run on a fresh Problem may
// allocate: the curve's visit order (8 bytes an element), the assignment (4
// bytes an element), under non-uniform weights the cut points (8 bytes a
// part), and 64 KiB of slack for everything of fixed size. An inverse rank
// table, a leaf-orientation table, a []Point per face, a gathered weight
// vector or a per-rank segment label — 3 to 16 bytes an element each, all
// gone since the cut became arithmetic and the inverse a descent — would
// break it at Ne=128, where the slack is a fifteenth of one of them; Ne=32
// holds the fixed part to its 64 KiB.
func TestCurveRunMemoryCeiling(t *testing.T) {
	cfl, err := weights.Parse("cfl")
	if err != nil {
		t.Fatal(err)
	}
	for _, ne := range []int{32, 128} {
		for _, spec := range []weights.Spec{{}, cfl} {
			const rounds = 4
			probs := make([]*Problem, rounds)
			k, nparts := 6*ne*ne, 6*ne*ne/16
			for i := range probs {
				if probs[i], err = NewProblem(ne); err != nil {
					t.Fatal(err)
				}
				if err := probs[i].SetWeights(spec.Generate(probs[i].Mesh())); err != nil {
					t.Fatal(err)
				}
			}
			weighted := probs[0].Weights() != nil
			ceiling := int64(12*k + 64<<10)
			if weighted {
				ceiling += int64(8 * nparts)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, p := range probs {
				if _, err := Run(context.Background(), "sfc", p, nparts, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if perRun := int64(after.TotalAlloc-before.TotalAlloc) / rounds; perRun > ceiling {
				t.Errorf("Ne=%d weighted=%v: an sfc run allocated %d bytes for K=%d elements (ceiling %d): a per-element table or temporary is back",
					ne, weighted, perRun, k, ceiling)
			} else {
				t.Logf("Ne=%d weighted=%v: %d bytes/run, ceiling %d", ne, weighted, perRun, ceiling)
			}
		}
	}
}
