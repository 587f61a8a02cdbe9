package check

import (
	"math"
	"strings"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// meshAndGraph builds the default paper-setup graph for Ne.
func meshAndGraph(t *testing.T, ne int) (*mesh.Mesh, *graph.Graph) {
	t.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestSurfaceToVolumeSquareBlocks(t *testing.T) {
	// Six parts = six faces: every part is an Ne x Ne square whose Moore
	// boundary is exactly 8*Ne cut pairs (4*Ne boundary edges and 4*Ne
	// corner pairs wrap onto neighbouring faces; the cubed-sphere has no
	// outer boundary and face corners coincide with cube corners where one
	// diagonal neighbour is missing... measured exactly below).
	const ne = 8
	m, g := meshAndGraph(t, ne)
	p := partition.New(m.NumElems(), 6)
	for e := 0; e < m.NumElems(); e++ {
		p.SetPart(e, int(m.Elem(mesh.ElemID(e)).Face))
	}
	sv, err := ComputeSurfaceToVolume(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		if sv.Volume[q] != ne*ne {
			t.Fatalf("part %d volume %d, want %d", q, sv.Volume[q], ne*ne)
		}
		// Each face's boundary: 4*Ne edge-adjacent pairs across cube edges
		// plus corner pairs; exact count must match an independent
		// recomputation from the mesh.
		var want int64
		for e := 0; e < m.NumElems(); e++ {
			if int(m.Elem(mesh.ElemID(e)).Face) != q {
				continue
			}
			for _, n := range m.EdgeNeighbors(mesh.ElemID(e)) {
				if int(m.Elem(n).Face) != q {
					want++
				}
			}
			for _, n := range m.CornerNeighbors(mesh.ElemID(e)) {
				if int(m.Elem(n).Face) != q {
					want++
				}
			}
		}
		if sv.Surface[q] != want {
			t.Fatalf("part %d surface %d, want %d", q, sv.Surface[q], want)
		}
	}
	if err := sv.AuditLowerBound(g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	if err := sv.AuditRatio(DefaultSVCeilings["SFC"].Ceiling, DefaultSVCeilings["SFC"].Additive); err != nil {
		t.Fatal(err)
	}
}

// TestSurfaceAuditCatchesStrips is the non-vacuity proof of the compactness
// ceiling: a serpentine partition at moderate granularity produces
// one-column strips whose surface-to-volume ratio blows past the compact
// ceiling, while the Hilbert partition of the same case sails through.
func TestSurfaceAuditCatchesStrips(t *testing.T) {
	// 192 parts of 32 elements: serpentine hands each part exactly one
	// 1 x 32 column strip.
	const ne, nprocs = 32, 192
	m, g := meshAndGraph(t, ne)
	serp, err := sfc.NewCubeCurveFromBase(m, sfc.GenerateSerpentine(ne))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.PartitionCurve(serp, nprocs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := ComputeSurfaceToVolume(g, p)
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultSVCeilings["SFC"]
	if err := sv.AuditRatio(c.Ceiling, c.Additive); err == nil {
		t.Fatalf("serpentine strips passed the compactness audit (max ratio %.2f)", sv.MaxRatio)
	} else if !strings.Contains(err.Error(), "compactness ceiling") {
		t.Fatalf("unexpected audit error: %v", err)
	}

	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs})
	if err != nil {
		t.Fatal(err)
	}
	svh, err := ComputeSurfaceToVolume(g, res.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if err := svh.AuditRatio(c.Ceiling, c.Additive); err != nil {
		t.Fatalf("Hilbert partition failed the compactness audit: %v", err)
	}
	if svh.MaxRatio >= sv.MaxRatio {
		t.Fatalf("Hilbert max ratio %.2f not below serpentine %.2f", svh.MaxRatio, sv.MaxRatio)
	}
}

func TestIsoperimetricFloor(t *testing.T) {
	if got := IsoperimetricFloor(0, 100); got != 0 {
		t.Fatalf("empty part floor %d, want 0", got)
	}
	if got := IsoperimetricFloor(100, 100); got != 0 {
		t.Fatalf("full part floor %d, want 0", got)
	}
	// Complement symmetry: a part of V and one of K-V share one boundary.
	if a, b := IsoperimetricFloor(10, 100), IsoperimetricFloor(90, 100); a != b {
		t.Fatalf("floor not complement-symmetric: %d vs %d", a, b)
	}
	if got, want := IsoperimetricFloor(16, 1000), int64(math.Ceil(2*4.0)); got != want {
		t.Fatalf("floor(16) = %d, want %d", got, want)
	}
	// The floor must hold for the tightest real partitions: every golden
	// SFC configuration at exact balance.
	m, g := meshAndGraph(t, 16)
	_ = m
	for _, nprocs := range []int{4, 16, 64, 768} {
		res, err := core.PartitionCubedSphere(core.Config{Ne: 16, NProcs: nprocs})
		if err != nil {
			t.Fatal(err)
		}
		sv, err := ComputeSurfaceToVolume(g, res.Partition)
		if err != nil {
			t.Fatal(err)
		}
		if err := sv.AuditLowerBound(g.NumVertices()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAuditLowerBoundDetectsBrokenAccounting(t *testing.T) {
	sv := SurfaceToVolume{
		NParts:  2,
		Volume:  []int{50, 50},
		Surface: []int64{3, 40}, // part 0 claims an impossibly small boundary
	}
	if err := sv.AuditLowerBound(100); err == nil {
		t.Fatal("expected lower-bound violation")
	} else if !strings.Contains(err.Error(), "isoperimetric floor") {
		t.Fatalf("unexpected error: %v", err)
	}
}
