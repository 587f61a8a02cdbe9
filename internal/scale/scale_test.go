package scale

import (
	"fmt"
	"runtime"
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

// TestNe384EndToEnd is the million-element acceptance run: Ne=384 (884,736
// elements, 100x the paper's largest tabulated case) partitioned onto 9,216
// processors — the part size is exactly 96 elements, so any imbalance at all
// is a bug. The full pipeline runs: mesh, streaming CSR dual graph,
// parallel curve build, contiguous cut, then the independent oracle
// (ValidatePartition + CrossCheckStats) over the whole graph.
func TestNe384EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("million-element run skipped in -short mode (see TESTING.md)")
	}
	if raceEnabled {
		t.Skip("million-element run skipped under -race (determinism tests cover the parallel paths)")
	}
	const ne, nprocs = 384, 9216
	const k = 6 * ne * ne // 884736; k/nprocs = 96 exactly
	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	if p.NumVertices() != k || p.NumParts() != nprocs {
		t.Fatalf("partition is %d vertices / %d parts, want %d / %d",
			p.NumVertices(), p.NumParts(), k, nprocs)
	}
	// Perfect balance: uniform weights divide evenly.
	for q, c := range p.Counts() {
		if c != k/nprocs {
			t.Fatalf("part %d has %d elements, want %d", q, c, k/nprocs)
		}
	}
	// Contiguity along the curve: each part is one contiguous rank segment.
	seen := int32(-1)
	for r := 0; r < k; r++ {
		q := int32(p.Part(int(res.Curve.At(r))))
		if q != seen {
			if q != seen+1 {
				t.Fatalf("rank %d jumps from part %d to %d; segments not contiguous", r, seen, q)
			}
			seen = q
		}
	}
	// The dual graph streams through the exact-size CSR build; the oracle
	// then re-derives every Table-2 metric from scratch.
	g, err := graph.FromMesh(res.Mesh, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := check.ValidatePartition(g, p); err != nil {
		t.Fatal(err)
	}
	if err := check.CrossCheckStats(g, p); err != nil {
		t.Fatal(err)
	}
}

// sfcAssignment partitions Ne=96 with the given weights and returns the raw
// assignment (the parallel curve build, weight permute and scatter are all
// on this path).
func sfcAssignment(t *testing.T, ne, nprocs int, weights []int64) []int32 {
	t.Helper()
	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	return append([]int32(nil), res.Partition.Assignment()...)
}

// TestSFCParallelDeterministicAcrossGOMAXPROCS: the parallel SFC pipeline
// (per-face curve build, weight gather, assignment scatter) must be
// byte-identical at any GOMAXPROCS — uniform and weighted. This is the test
// the CI race job runs over package scale.
func TestSFCParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const ne, nprocs = 96, 512
	k := 6 * ne * ne
	w := make([]int64, k)
	for i := range w {
		w[i] = 1 + int64(i%17)
	}
	for _, tc := range []struct {
		name    string
		weights []int64
	}{{"uniform", nil}, {"weighted", w}} {
		t.Run(tc.name, func(t *testing.T) {
			var ref []int32
			for _, procs := range []int{1, 4, 1, 4} {
				runtime.GOMAXPROCS(procs)
				got := sfcAssignment(t, ne, nprocs, tc.weights)
				if ref == nil {
					ref = got
					continue
				}
				for v := range got {
					if got[v] != ref[v] {
						t.Fatalf("GOMAXPROCS=%d: assignment diverges at element %d: part %d, want %d",
							procs, v, got[v], ref[v])
					}
				}
			}
		})
	}
}

// TestCurveBuildDeterministicAcrossGOMAXPROCS pins the curve itself (not
// just the cut): the rank order of a parallel build must match a build at
// GOMAXPROCS=1 entry for entry, for both pure and mixed-factorisation sizes.
func TestCurveBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, ne := range []int{32, 48} { // 2^5 and 2^4*3: both schedule kinds
		t.Run(fmt.Sprintf("ne=%d", ne), func(t *testing.T) {
			build := func() *sfc.CubeCurve {
				m, err := mesh.New(ne)
				if err != nil {
					t.Fatal(err)
				}
				sched, err := sfc.ScheduleFor(ne, sfc.PeanoFirst)
				if err != nil {
					t.Fatal(err)
				}
				c, err := sfc.NewCubeCurve(m, sched)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			runtime.GOMAXPROCS(1)
			ref := build()
			runtime.GOMAXPROCS(4)
			got := build()
			if got.Len() != ref.Len() {
				t.Fatalf("curve lengths differ: %d vs %d", got.Len(), ref.Len())
			}
			for r := 0; r < ref.Len(); r++ {
				if got.At(r) != ref.At(r) {
					t.Fatalf("rank %d: element %d, want %d", r, got.At(r), ref.At(r))
				}
			}
		})
	}
}
