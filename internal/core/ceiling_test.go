package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"sfccube/internal/weights"
)

// TestCurveRunMemoryCeiling pins what one sfc run on a fresh Problem may
// allocate: the curve's visit order (4 bytes an element), the assignment (4
// bytes an element), under non-uniform weights the cut points (8 bytes a
// part), and 64 KiB of slack for everything of fixed size. The ceiling was
// 12 bytes an element while the visit order was stored as 8-byte ids; it is
// tightened to 8, so the order widening back breaks it. An inverse rank
// table, a leaf-orientation table, a []Point per face, a gathered weight
// vector or a per-rank segment label — 3 to 16 bytes an element each, all
// gone since the cut became arithmetic and the inverse a descent — would
// break it at Ne=128, where the slack is under a quarter of the smallest; Ne=32
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
			ceiling := int64(8*k + 64<<10)
			if weighted {
				ceiling += int64(8 * nparts)
			}
			perRun := allocatedPerCall(probs, func(p *Problem) {
				if _, err := Run(context.Background(), "sfc", p, nparts, 0, nil); err != nil {
					t.Fatal(err)
				}
			})
			if perRun > ceiling {
				t.Errorf("Ne=%d weighted=%v: an sfc run allocated %d bytes for K=%d elements (ceiling %d): a per-element table or temporary is back",
					ne, weighted, perRun, k, ceiling)
			} else {
				t.Logf("Ne=%d weighted=%v: %d bytes/run, ceiling %d", ne, weighted, perRun, ceiling)
			}
		}
	}
}

// allocatedPerCall is the mean number of bytes one call of f allocates, one
// call per problem, measured as the growth of the heap's running total. It
// forces no collection: a test that measures warm pooled state collects
// before its warm-up, not between the warm-up and the measurement.
func allocatedPerCall(probs []*Problem, f func(*Problem)) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range probs {
		f(p)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(len(probs))
}

// TestWeightedStatsMemoryCeiling pins what measuring a curve cut under
// weights costs beyond measuring it without: the PartWeights totals (8 bytes
// a part) and 4 KiB of slack. Stats reads the weight vector where it lies,
// on fresh Problems as on warm ones; an int32 copy of it for the view (4
// bytes an element, 96 KiB at Ne=64) or a second per-part load vector would
// break the bound.
func TestWeightedStatsMemoryCeiling(t *testing.T) {
	const ne, rounds, slack = 64, 4, 4 << 10
	k, nparts := 6*ne*ne, 6*ne*ne/16
	fresh := func(spec string) []*Problem {
		probs := make([]*Problem, rounds)
		for i := range probs {
			var err error
			if probs[i], err = NewProblem(ne); err != nil {
				t.Fatal(err)
			}
			if err := probs[i].SetWeightSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
		return probs
	}
	uniform, weighted := fresh(""), fresh("hv")
	part, err := Run(context.Background(), "sfc", uniform[0], nparts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(p *Problem) {
		if _, err := p.Stats(part); err != nil {
			t.Fatal(err)
		}
	}
	plain, loaded := allocatedPerCall(uniform, measure), allocatedPerCall(weighted, measure)
	if ceiling := plain + int64(8*nparts) + slack; loaded > ceiling {
		t.Errorf("Ne=%d: a weighted Stats allocated %d bytes, an unweighted one %d (ceiling %d for K=%d, %d parts): the weights are copied again",
			ne, loaded, plain, ceiling, k, nparts)
	} else {
		t.Logf("Ne=%d: weighted Stats %d bytes, unweighted %d, ceiling %d", ne, loaded, plain, ceiling)
	}
}

// TestKWayRunMemoryCeiling pins what one warm kway run on a fresh Problem
// allocates at Ne=32, on one P so the bisection tree runs on one workspace:
// the finest level streams into metis's reused block and the coarse levels
// onto the workspace, both pooled, so what is left is the assignment, small
// scratch and metis's fixed-size bookkeeping. The ceiling is 8 bytes an
// element and 16 KiB; the dual graph built as a heap CSR (graph.FromMesh,
// about 76 bytes an element) breaks it nine times over.
//
// Warm means warm: a collection empties the sync.Pools the workspace and
// the block live in (the first moves them to the victim cache, the second
// drops it), so the test collects and switches the collector off before the
// warm-up, and nothing collects between the warm-up and the measurement.
// The same runs with two forced collections in that span must break the
// ceiling, which shows the ceiling reads the warm state.
func TestKWayRunMemoryCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled memory at random")
	}
	const ne, rounds = 32, 4
	k, nparts := 6*ne*ne, 6*ne*ne/16
	run := func(p *Problem) {
		if _, err := Run(context.Background(), "kway", p, nparts, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// warm is the mean allocation of a run on a fresh Problem after two
	// warm-up runs (they grow the workspace and the level-0 block), with gcs
	// collections forced between the warm-up and the measurement.
	warm := func(gcs int) int64 {
		probs := make([]*Problem, rounds+2)
		for i := range probs {
			var err error
			if probs[i], err = NewProblem(ne); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		run(probs[rounds])
		run(probs[rounds+1])
		for range gcs {
			runtime.GC()
		}
		return allocatedPerCall(probs[:rounds], run)
	}
	ceiling := int64(8*k + 16<<10)
	if perRun := warm(0); perRun > ceiling {
		t.Errorf("Ne=%d: a warm kway run allocated %d bytes for K=%d elements (ceiling %d): the finest level is built on the heap again",
			ne, perRun, k, ceiling)
	} else {
		t.Logf("Ne=%d: a warm kway run allocated %d bytes (%.1f an element), ceiling %d", ne, perRun, float64(perRun)/float64(k), ceiling)
	}
	if perRun := warm(2); perRun <= ceiling {
		t.Errorf("Ne=%d: with two collections after the warm-up a kway run allocated %d bytes, within the ceiling %d: the ceiling no longer reads the warm state",
			ne, perRun, ceiling)
	} else {
		t.Logf("Ne=%d: with two collections after the warm-up, %d bytes (%.1f an element)", ne, perRun, float64(perRun)/float64(k))
	}
}
