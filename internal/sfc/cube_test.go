package sfc

import (
	"testing"

	"sfccube/internal/mesh"
)

func cubeInvariants(t *testing.T, ne int, order Order) *CubeCurve {
	t.Helper()
	m := mustMesh(t, ne)
	s, err := ScheduleFor(ne, order)
	if err != nil {
		t.Fatalf("ScheduleFor(%d): %v", ne, err)
	}
	cc, err := NewCubeCurve(m, s)
	if err != nil {
		t.Fatalf("NewCubeCurve(ne=%d): %v", ne, err)
	}
	if cc.Len() != m.NumElems() {
		t.Fatalf("ne=%d: Len=%d, want %d", ne, cc.Len(), m.NumElems())
	}
	// Bijection between ranks and elements.
	seen := make([]bool, m.NumElems())
	for r := 0; r < cc.Len(); r++ {
		e := cc.At(r)
		if seen[e] {
			t.Fatalf("ne=%d: element %d visited twice", ne, e)
		}
		seen[e] = true
		if got, _ := cc.ElemXF(e); got != r {
			t.Fatalf("ne=%d: ElemXF(At(%d)) ranks it %d", ne, r, got)
		}
	}
	// The defining property (Figure 6): one single continuous curve across
	// the whole cubed-sphere, including across cube edges.
	if !cc.IsContinuous() {
		t.Fatalf("ne=%d: cube curve not continuous", ne)
	}
	return cc
}

func TestCubeCurveAllPaperResolutions(t *testing.T) {
	// The paper's four test resolutions plus small sanity sizes.
	for _, ne := range []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 18} {
		cubeInvariants(t, ne, PeanoFirst)
	}
}

func TestCubeCurveRefinementOrders(t *testing.T) {
	for _, o := range []Order{PeanoFirst, HilbertFirst, Interleaved} {
		cubeInvariants(t, 6, o)
		cubeInvariants(t, 18, o)
	}
}

func TestCubeCurveVisitsFacesInPathOrder(t *testing.T) {
	cc := cubeInvariants(t, 4, PeanoFirst)
	m := cc.m
	per := m.Ne() * m.Ne()
	for i, f := range cc.FacePath() {
		for r := i * per; r < (i+1)*per; r++ {
			if got := m.Elem(cc.At(r)).Face; got != f {
				t.Fatalf("rank %d on face %v, want %v", r, got, f)
			}
		}
	}
}

func TestCubeCurveSizeMismatch(t *testing.T) {
	m := mustMesh(t, 4)
	if _, err := NewCubeCurve(m, Schedule{Hilbert}); err == nil {
		t.Error("want error for schedule side 2 on Ne=4 mesh")
	}
}

func TestCubeCurveDeterministic(t *testing.T) {
	m := mustMesh(t, 6)
	s, _ := ScheduleFor(6, PeanoFirst)
	a, _ := NewCubeCurve(m, s)
	b, _ := NewCubeCurve(m, s)
	for r := 0; r < a.Len(); r++ {
		if a.At(r) != b.At(r) {
			t.Fatalf("rank %d differs between identical constructions", r)
		}
	}
}

// Contiguous curve segments must be geometrically compact: for an 8x8 face
// mesh split into 48 segments of 8 elements, every segment's elements must
// form a connected patch under edge+corner adjacency.
func TestCurveSegmentsAreConnected(t *testing.T) {
	cc := cubeInvariants(t, 8, PeanoFirst)
	m := cc.m
	segSize := 8
	for start := 0; start < cc.Len(); start += segSize {
		in := map[mesh.ElemID]bool{}
		for r := start; r < start+segSize; r++ {
			in[cc.At(r)] = true
		}
		// BFS from the first element of the segment.
		visited := map[mesh.ElemID]bool{}
		queue := []mesh.ElemID{cc.At(start)}
		visited[cc.At(start)] = true
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			for _, n := range m.Neighbors(e) {
				if in[n] && !visited[n] {
					visited[n] = true
					queue = append(queue, n)
				}
			}
		}
		if len(visited) != segSize {
			t.Fatalf("segment at rank %d not connected: reached %d of %d",
				start, len(visited), segSize)
		}
	}
}

func BenchmarkCubeCurveNe16(b *testing.B) {
	m := mustMesh(b, 16)
	s, _ := ScheduleFor(16, PeanoFirst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCubeCurve(m, s); err != nil {
			b.Fatal(err)
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

// TestNe1OrientationsMatchRefinement pins the Ne=1 fix: with a single cell
// per face the orientation search is vacuous (entry == exit under every
// transform), so the curve must adopt the face path and orientations its own
// one-level refinement chooses — otherwise ElemXF's contract (refining the
// schedule continues the global curve) silently breaks, which is exactly how
// tree-SFC orders over an Ne=1 adaptive forest went wrong.
func TestNe1OrientationsMatchRefinement(t *testing.T) {
	for ord := Order(0); ord < 3; ord++ {
		m1, err := mesh.New(1)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := ScheduleFor(1, ord)
		if err != nil {
			t.Fatal(err)
		}
		c1, err := NewCubeCurve(m1, sched)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := mesh.New(2)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := NewCubeCurve(m2, append(append(Schedule{}, sched...), Hilbert))
		if err != nil {
			t.Fatal(err)
		}
		if c1.FacePath() != c2.FacePath() {
			t.Errorf("order %v: Ne=1 face path %v differs from its refinement's %v",
				ord, c1.FacePath(), c2.FacePath())
		}
		for f := mesh.Face(0); f < mesh.NumFaces; f++ {
			if c1.xf[f] != c2.xf[f] {
				t.Errorf("order %v face %d: Ne=1 orientation %v, refinement uses %v",
					ord, f, c1.xf[f], c2.xf[f])
			}
		}
	}
}

// TestFacesAdjacentMatchesMesh holds the arithmetic face-adjacency test to
// the mesh itself: at Ne=1 an element is a face, and two faces share a cube
// edge exactly when their elements are edge neighbours. The table-free
// enumeration must also still find the octahedron's 240 Hamiltonian paths,
// default path first.
func TestFacesAdjacentMatchesMesh(t *testing.T) {
	m := mustMesh(t, 1)
	for a := mesh.Face(0); a < mesh.NumFaces; a++ {
		for b := mesh.Face(0); b < mesh.NumFaces; b++ {
			if got, want := facesAdjacent(a, b), isEdgeNeighbor(m, m.ID(a, 0, 0), m.ID(b, 0, 0)); got != want {
				t.Errorf("facesAdjacent(%v, %v) = %v, mesh says %v", a, b, got, want)
			}
		}
	}
	if n := len(faceHamiltonianPaths); n != 240 || faceHamiltonianPaths[0] != defaultFacePath {
		t.Errorf("%d Hamiltonian face paths starting %v, want 240 starting with the default path", n, faceHamiltonianPaths[0])
	}
}
