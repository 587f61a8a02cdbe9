package amr

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

func TestNoRefinementMatchesBaseMesh(t *testing.T) {
	for _, ne := range []int{2, 3, 4} {
		f, err := NewForest(ne, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := mustMesh(t, ne)
		if f.NumLeaves() != m.NumElems() {
			t.Fatalf("ne=%d: %d leaves, want %d", ne, f.NumLeaves(), m.NumElems())
		}
		// Leaf i corresponds to base element order of creation; adjacency
		// cardinalities must match the uniform mesh exactly.
		for i, l := range f.Leaves() {
			if l.Level != 0 {
				t.Fatalf("unrefined leaf at level %d", l.Level)
			}
			id := m.ID(l.Face, l.X, l.Y)
			if len(f.edgeNbrs[i]) != len(m.EdgeNeighbors(id)) {
				t.Fatalf("ne=%d leaf %d: %d edge nbrs, mesh has %d",
					ne, i, len(f.edgeNbrs[i]), len(m.EdgeNeighbors(id)))
			}
			if len(f.cornerNbrs[i]) != len(m.CornerNeighbors(id)) {
				t.Fatalf("ne=%d leaf %d: corner nbrs %d vs %d",
					ne, i, len(f.cornerNbrs[i]), len(m.CornerNeighbors(id)))
			}
		}
	}
}

func TestUniformRefinementMatchesFinerMesh(t *testing.T) {
	ne := 2
	f, err := NewForest(ne, 1, func(Leaf) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	m := mustMesh(t, 2*ne)
	if f.NumLeaves() != m.NumElems() {
		t.Fatalf("%d leaves, want %d", f.NumLeaves(), m.NumElems())
	}
	// Histogram of neighbour counts must match the uniform fine mesh.
	countNbrs := func() (edges, corners int) {
		for i := range f.Leaves() {
			edges += len(f.edgeNbrs[i])
			corners += len(f.cornerNbrs[i])
		}
		return
	}
	fe, fc := countNbrs()
	var me, mc int
	for e := 0; e < m.NumElems(); e++ {
		me += len(m.EdgeNeighbors(mesh.ElemID(e)))
		mc += len(m.CornerNeighbors(mesh.ElemID(e)))
	}
	if fe != me || fc != mc {
		t.Errorf("adjacency totals (%d,%d), fine mesh has (%d,%d)", fe, fc, me, mc)
	}
}

func TestRefinementLeafCountAndArea(t *testing.T) {
	ne := 4
	// Refine cells whose level-0 ancestor is on face +X, two levels deep.
	f, err := NewForest(ne, 2, func(l Leaf) bool { return l.Face == mesh.FacePX })
	if err != nil {
		t.Fatal(err)
	}
	base := 6 * ne * ne
	faceCells := ne * ne
	// Face +X fully refined twice: each base cell -> 16 leaves.
	want := base - faceCells + faceCells*16
	if f.NumLeaves() != want {
		t.Errorf("%d leaves, want %d", f.NumLeaves(), want)
	}
	// Area conservation: sum of 4^-level over leaves equals base cells.
	var area float64
	for _, l := range f.Leaves() {
		area += math.Pow(0.25, float64(l.Level))
	}
	if math.Abs(area-float64(base)) > 1e-9 {
		t.Errorf("area %v, want %d", area, base)
	}
}

// A hanging node: a coarse leaf bordered by two half-size leaves must be
// edge-adjacent to both, and the two fine leaves diagonal across the
// hanging node must be corner-adjacent.
func TestHangingNodeAdjacency(t *testing.T) {
	ne := 2
	// Refine exactly one base cell: face +X cell (0,0).
	f, err := NewForest(ne, 1, func(l Leaf) bool {
		return l.Face == mesh.FacePX && l.X == 0 && l.Y == 0 && l.Level == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the coarse right neighbour (face +X cell (1,0), level 0) and
	// the two fine leaves on the refined cell's right edge.
	var coarse int = -1
	var fineRight []int
	for i, l := range f.Leaves() {
		if l.Face == mesh.FacePX && l.Level == 0 && l.X == 1 && l.Y == 0 {
			coarse = i
		}
		if l.Face == mesh.FacePX && l.Level == 1 && l.X == 1 && (l.Y == 0 || l.Y == 1) {
			fineRight = append(fineRight, i)
		}
	}
	if coarse < 0 || len(fineRight) != 2 {
		t.Fatalf("test setup wrong: coarse=%d fine=%v", coarse, fineRight)
	}
	has := func(s []int32, v int) bool {
		for _, x := range s {
			if int(x) == v {
				return true
			}
		}
		return false
	}
	for _, fr := range fineRight {
		if !has(f.edgeNbrs[coarse], fr) {
			t.Errorf("coarse leaf not edge-adjacent to fine leaf %d", fr)
		}
	}
}

func TestForestErrors(t *testing.T) {
	if _, err := NewForest(0, 1, nil); err == nil {
		t.Error("ne=0 accepted")
	}
	if _, err := NewForest(2, -1, nil); err == nil {
		t.Error("negative maxLevel accepted")
	}
	if _, err := NewForest(2, 13, nil); err == nil {
		t.Error("huge maxLevel accepted")
	}
}

func TestOrderIsPermutationAndNested(t *testing.T) {
	ne := 4
	f, err := NewForest(ne, 2, func(l Leaf) bool {
		// Refine a quarter of face +Y one level, one cell a second level.
		if l.Face != mesh.FacePY {
			return false
		}
		if l.Level == 0 {
			return l.X < 2 && l.Y < 2
		}
		return l.Level == 1 && l.X == 0 && l.Y == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	order, err := f.Order(sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != f.NumLeaves() {
		t.Fatalf("order length %d, want %d", len(order), f.NumLeaves())
	}
	seen := make([]bool, f.NumLeaves())
	for _, i := range order {
		if seen[i] {
			t.Fatal("order repeats a leaf")
		}
		seen[i] = true
	}
	// Nesting: all leaves descending from the same base element must be
	// consecutive in the order.
	baseOf := func(l Leaf) [3]int {
		s := 1 << l.Level
		return [3]int{int(l.Face), l.X / s, l.Y / s}
	}
	lastBase := map[[3]int]bool{}
	var prev [3]int
	first := true
	for _, i := range order {
		b := baseOf(f.Leaves()[i])
		if first || b != prev {
			if lastBase[b] {
				t.Fatalf("base element %v appears in two separate runs", b)
			}
			lastBase[b] = true
			prev = b
			first = false
		}
	}
}

func TestGraphValid(t *testing.T) {
	f, err := NewForest(3, 1, func(l Leaf) bool { return l.Face == mesh.FaceNZ })
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Graph(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != f.NumLeaves() {
		t.Error("graph size wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The frame table must stay in sync with the mesh package: with no
// refinement, cube-edge adjacency computed by amr must equal the mesh's.
func TestFaceFrameConsistentWithMesh(t *testing.T) {
	ne := 3
	f, err := NewForest(ne, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMesh(t, ne)
	for i, l := range f.Leaves() {
		id := m.ID(l.Face, l.X, l.Y)
		want := map[int32]bool{}
		for _, n := range m.EdgeNeighbors(id) {
			want[int32(n)] = true
		}
		for _, j := range f.edgeNbrs[i] {
			jl := f.Leaves()[j]
			jid := m.ID(jl.Face, jl.X, jl.Y)
			if !want[int32(jid)] {
				t.Fatalf("leaf %d edge-adjacent to %d but mesh disagrees", i, j)
			}
		}
	}
}

// mustMesh builds a cubed-sphere mesh or fails the test.
func mustMesh(tb testing.TB, ne int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
