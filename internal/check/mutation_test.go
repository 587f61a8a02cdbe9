package check

import (
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/partition"
)

// TestMutationOracleNotVacuous proves the quality oracle actually
// discriminates: starting from a pristine SFC partition it injects two
// defects and asserts the independently recomputed metrics flag each one.
//
//  1. Swap two elements across distant parts. Part sizes are preserved, so
//     the computational balance stays perfect — but each swapped element
//     lands surrounded by foreign neighbours, so the edgecut must move.
//  2. Move one element to another part. Now the balance itself breaks:
//     LB(nelemd) must leave zero exactly.
//
// Both mutants remain structurally valid partitions — the oracle must keep
// accepting them structurally while rejecting their quality, proving the
// two layers are independent and neither is vacuous. That the golden bytes
// carry each moved metric is held beside the suite, in internal/experiments
// (TestGoldenBytesCarryMutations).
func TestMutationOracleNotVacuous(t *testing.T) {
	const ne, nprocs = 8, 16
	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mesh
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	if err := CrossCheckStats(g, p); err != nil {
		t.Fatal(err)
	}
	before, err := ComputeMetrics(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if before.LBNelemd != 0 {
		t.Fatalf("pristine SFC partition has LB %g, want 0", before.LBNelemd)
	}
	// Pick one interior element of part 0 and one of the last part: every
	// neighbour is in the same part, so after the swap every incident edge
	// is cut and the edgecut must strictly increase.
	interiorOf := func(part int) int {
		for v := 0; v < g.NumVertices(); v++ {
			if p.Part(v) != part {
				continue
			}
			interior := true
			for _, u := range g.Adj(v) {
				if p.Part(int(u)) != part {
					interior = false
					break
				}
			}
			if interior {
				return v
			}
		}
		t.Fatalf("no interior element in part %d", part)
		return -1
	}
	a, b := interiorOf(0), interiorOf(nprocs-1)
	mutant := func() *partition.Partition {
		q, err := partition.FromAssignment(append([]int32(nil), p.Assignment()...), nprocs)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// Mutation 1: swap across parts.
	swapped := mutant()
	swapped.SetPart(a, nprocs-1)
	swapped.SetPart(b, 0)
	if err := ValidatePartition(g, swapped); err != nil {
		t.Fatalf("swap mutant should stay structurally valid: %v", err)
	}
	after, err := ComputeMetrics(g, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if after.LBNelemd != before.LBNelemd {
		t.Errorf("swap changed LB(nelemd): %g -> %g (sizes are preserved)", before.LBNelemd, after.LBNelemd)
	}
	if after.EdgeCut <= before.EdgeCut {
		t.Errorf("swap of interior elements did not increase edgecut: %d -> %d", before.EdgeCut, after.EdgeCut)
	}
	if err := CrossCheckStats(g, swapped); err != nil {
		t.Errorf("stats cross-check must still agree on the mutant: %v", err)
	}

	// Mutation 2: move one element (breaks the balance).
	moved := mutant()
	moved.SetPart(a, nprocs-1)
	if err := ValidatePartition(g, moved); err != nil {
		t.Fatalf("move mutant should stay structurally valid: %v", err)
	}
	afterMove, err := ComputeMetrics(g, moved)
	if err != nil {
		t.Fatal(err)
	}
	if afterMove.LBNelemd == 0 {
		t.Error("moving an element across parts left LB(nelemd) at exactly 0")
	}
}
