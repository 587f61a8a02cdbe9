package metis

import (
	"fmt"
	"runtime"
	"testing"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/prng"
)

// assignmentOf partitions the Ne=12 cubed-sphere dual graph and returns the
// raw element->part assignment.
func assignmentOf(t *testing.T, m Method, nparts int, seed int64) []int {
	t.Helper()
	msh, err := mesh.New(12)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	g, err := graph.FromMesh(msh, graph.DefaultOptions())
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	p, err := Partition(g, nparts, Options{Method: m, Seed: seed})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = p.Part(v)
	}
	return out
}

// TestDeterministicAcrossGOMAXPROCS verifies the contract stated in the
// package doc: for a fixed Options.Seed, repeated runs and any GOMAXPROCS
// setting produce byte-identical assignments. The recursive-bisection tree
// fans out on goroutines, so this is the test that the per-subtree RNG
// streams really decouple the result from scheduling.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range []Method{RB, KWay, KWayVol} {
		for _, nparts := range []int{7, 96} {
			t.Run(fmt.Sprintf("%v/nparts=%d", m, nparts), func(t *testing.T) {
				var ref []int
				for _, procs := range []int{1, 4, 1, 4} {
					runtime.GOMAXPROCS(procs)
					got := assignmentOf(t, m, nparts, 12345)
					if ref == nil {
						ref = got
						continue
					}
					for v := range got {
						if got[v] != ref[v] {
							t.Fatalf("GOMAXPROCS=%d: assignment diverges at vertex %d: got part %d, want %d",
								procs, v, got[v], ref[v])
						}
					}
				}
			})
		}
	}
}

// TestSeedChangesAssignment guards against the opposite failure: the seed
// plumbing silently collapsing to a constant stream, which would make the
// determinism test above pass vacuously.
func TestSeedChangesAssignment(t *testing.T) {
	for _, m := range []Method{RB, KWay} {
		a := assignmentOf(t, m, 24, 1)
		b := assignmentOf(t, m, 24, 2)
		same := true
		for v := range a {
			if a[v] != b[v] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%v: seeds 1 and 2 produced identical assignments; seed is not reaching the RNG streams", m)
		}
	}
}

// largeAssignmentOf partitions the Ne=96 dual graph (55296 vertices — above
// parCoarsenMinVertices, so blocked matching and parallel contraction are on
// the path) and returns the raw assignment.
func largeAssignmentOf(t *testing.T, m Method, nparts int, seed int64) []int {
	t.Helper()
	msh, err := mesh.New(96)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	g, err := graph.FromMesh(msh, graph.DefaultOptions())
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	p, err := Partition(g, nparts, Options{Method: m, Seed: seed})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	out := make([]int, g.NumVertices())
	for v := range out {
		out[v] = p.Part(v)
	}
	return out
}

// TestParallelCoarseningDeterministicAcrossGOMAXPROCS is the large-regime
// counterpart of TestDeterministicAcrossGOMAXPROCS: at Ne=96 the coarsening
// levels above 2^15 vertices use blocked matching (per-block RNG streams)
// and chunk-parallel contraction, and the assignment must still be
// byte-identical at GOMAXPROCS 1 and 4.
func TestParallelCoarseningDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("large-regime determinism test skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		m      Method
		nparts int
	}{{RB, 96}, {KWay, 96}} {
		t.Run(fmt.Sprintf("%v/nparts=%d", tc.m, tc.nparts), func(t *testing.T) {
			var ref []int
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got := largeAssignmentOf(t, tc.m, tc.nparts, 98765)
				if ref == nil {
					ref = got
					continue
				}
				for v := range got {
					if got[v] != ref[v] {
						t.Fatalf("GOMAXPROCS=%d: assignment diverges at vertex %d: got part %d, want %d",
							procs, v, got[v], ref[v])
					}
				}
			}
		})
	}
}

// TestParallelContractMatchesSerial checks the parallel contraction against
// the sequential one on the same matching: contractParallel and
// contractSerial must produce bitwise-identical coarse graphs.
func TestParallelContractMatchesSerial(t *testing.T) {
	msh, err := mesh.New(96)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	gr, err := graph.FromMesh(msh, graph.DefaultOptions())
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	g := fromGraph(gr)
	ws := getWS()
	defer putWS(ws)
	defer ws.release(ws.mark())
	cmap, nc := heavyEdgeMatch(g, prng.New(424242), ws) // 55296 vertices: blocked
	if nc >= g.n() {
		t.Fatalf("blocked matching stalled: nc=%d of n=%d", nc, g.n())
	}
	a := contractParallel(g, cmap, nc, ws)
	b := contractSerial(g, cmap, nc, ws)
	eq := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(a.xadj, b.xadj) || !eq(a.adj, b.adj) || !eq(a.ewgt, b.ewgt) ||
		!eq(a.vwgt, b.vwgt) || !eq(a.vsize, b.vsize) {
		t.Fatal("contractParallel differs from contractSerial on the same matching")
	}
}
