package graph

import (
	"testing"
	"testing/quick"

	"sfccube/internal/mesh"
)

func path3() *Graph {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 2); err != nil {
		panic(err)
	}
	if err := b.AddEdge(1, 2, 3); err != nil {
		panic(err)
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := path3()
	if g.NumVertices() != 3 || len(g.adjncy)/2 != 2 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), len(g.adjncy)/2)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Adj(0)) != 1 || len(g.Adj(1)) != 2 || len(g.Adj(2)) != 1 {
		t.Error("degrees wrong")
	}
	if g.EdgeWeightBetween(0, 1) != 2 || g.EdgeWeightBetween(1, 0) != 2 {
		t.Error("edge weight (0,1) wrong")
	}
	if g.EdgeWeightBetween(0, 2) != 0 {
		t.Error("absent edge should have weight 0")
	}
	for v := 0; v < 3; v++ {
		if g.VertexWeight(v) != 1 || g.VertexSize(v) != 1 {
			t.Errorf("vertex %d: default weight/size should be 1", v)
		}
	}
}

func TestBuilderAccumulatesParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 1, 2)
	_ = b.AddEdge(1, 0, 5)
	g := b.Build()
	if len(g.adjncy)/2 != 1 {
		t.Fatalf("parallel edges not merged: %d edges", len(g.adjncy)/2)
	}
	if g.EdgeWeightBetween(0, 1) != 7 {
		t.Errorf("weight = %d, want 7", g.EdgeWeightBetween(0, 1))
	}
}

// TestBuilderDuplicateHeavy hammers the sort/merge Build path: every edge of
// a small dense graph is recorded many times, in both orientations, with
// varying weights. The frozen CSR must contain each undirected edge exactly
// once with the accumulated weight, and still pass Validate.
func TestBuilderDuplicateHeavy(t *testing.T) {
	const n = 9
	b := NewBuilder(n)
	want := make(map[[2]int]int32)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			reps := 1 + (u*7+v*3)%5
			for r := 0; r < reps; r++ {
				w := int32(1 + (u+v+r)%4)
				// Alternate orientation to exercise both append directions.
				if r%2 == 0 {
					if err := b.AddEdge(u, v, w); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := b.AddEdge(v, u, w); err != nil {
						t.Fatal(err)
					}
				}
				want[[2]int{u, v}] += w
			}
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.adjncy)/2 != n*(n-1)/2 {
		t.Fatalf("edges = %d, want %d (duplicates not merged)", len(g.adjncy)/2, n*(n-1)/2)
	}
	for k, w := range want {
		if got := g.EdgeWeightBetween(k[0], k[1]); got != w {
			t.Errorf("edge (%d,%d) weight %d, want accumulated %d", k[0], k[1], got, w)
		}
		if got := g.EdgeWeightBetween(k[1], k[0]); got != w {
			t.Errorf("edge (%d,%d) reverse weight %d, want %d", k[1], k[0], got, w)
		}
	}
	// Every vertex sees all n-1 neighbours exactly once, in sorted order
	// (Validate already asserts strict sorting; check the degree here).
	for v := 0; v < n; v++ {
		if len(g.Adj(v)) != n-1 {
			t.Errorf("vertex %d degree %d, want %d", v, len(g.Adj(v)), n-1)
		}
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestVertexWeightsAndSizes(t *testing.T) {
	b := NewBuilder(2)
	b.SetVertexWeight(0, 7)
	b.SetVertexSize(1, 9)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.VertexWeight(0) != 7 || g.VertexWeight(1) != 1 {
		t.Error("vertex weights wrong")
	}
	if g.VertexSize(1) != 9 || g.VertexSize(0) != 1 {
		t.Error("vertex sizes wrong")
	}
}

func TestFromMeshStructure(t *testing.T) {
	m := mustMesh(t, 4)
	g, err := FromMesh(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != m.NumElems() {
		t.Fatalf("vertices = %d, want %d", g.NumVertices(), m.NumElems())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degree must match mesh neighbour count; weights must distinguish
	// boundary (8) from corner (1) adjacency.
	for e := 0; e < m.NumElems(); e++ {
		id := mesh.ElemID(e)
		want := len(m.EdgeNeighbors(id)) + len(m.CornerNeighbors(id))
		if len(g.Adj(e)) != want {
			t.Fatalf("elem %d degree %d, want %d", e, len(g.Adj(e)), want)
		}
		for _, n := range m.EdgeNeighbors(id) {
			if g.EdgeWeightBetween(e, int(n)) != 8 {
				t.Fatalf("boundary edge (%d,%d) weight %d, want 8", e, n, g.EdgeWeightBetween(e, int(n)))
			}
		}
		for _, n := range m.CornerNeighbors(id) {
			if g.EdgeWeightBetween(e, int(n)) != 1 {
				t.Fatalf("corner edge (%d,%d) weight %d, want 1", e, n, g.EdgeWeightBetween(e, int(n)))
			}
		}
	}
}

func TestFromMeshWithoutCorners(t *testing.T) {
	m := mustMesh(t, 4)
	g, err := FromMesh(m, Options{EdgeWeight: 1, IncludeCorners: false})
	if err != nil {
		t.Fatal(err)
	}
	// Every element of the cubed-sphere has exactly 4 edge neighbours, so
	// the boundary-only graph is 4-regular: |E| = 4*K/2.
	if len(g.adjncy)/2 != 2*m.NumElems() {
		t.Errorf("edges = %d, want %d", len(g.adjncy)/2, 2*m.NumElems())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if len(g.Adj(v)) != 4 {
			t.Fatalf("vertex %d degree %d, want 4", v, len(g.Adj(v)))
		}
	}
}

func TestFromMeshCustomWeights(t *testing.T) {
	m := mustMesh(t, 2)
	k := m.NumElems()
	vw := make([]int32, k)
	for i := range vw {
		vw[i] = int32(i + 1)
	}
	g, err := FromMesh(m, Options{IncludeCorners: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexWeights(vw); err != nil {
		t.Fatal(err)
	}
	if g.VertexWeight(5) != 6 || g.VertexSize(3) != 1 {
		t.Error("custom weights not applied")
	}
}

// A weight vector of the wrong length is refused; a zero weight, an inactive
// element, is accepted. (A mesh view takes no vertex weights: its load model
// is the explicit vector beside it.)
func TestFromMeshRejectsBadWeights(t *testing.T) {
	m := mustMesh(t, 2)
	g, err := FromMesh(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexWeights([]int32{1, 2}); err == nil {
		t.Error("short weight slice accepted")
	}
	if err := g.SetVertexWeights(make([]int32, m.NumElems())); err != nil {
		t.Errorf("zero weights refused: %v", err)
	}
}

// Property: FromMesh always produces a graph that passes Validate, for any
// small mesh size and weight configuration.
func TestFromMeshAlwaysValidProperty(t *testing.T) {
	f := func(rawNe uint8, corners bool, ew, cw uint8) bool {
		ne := 1 + int(rawNe)%6
		m := mustMesh(t, ne)
		g, err := FromMesh(m, Options{
			EdgeWeight:     int32(ew%16) + 1,
			CornerWeight:   int32(cw%4) + 1,
			IncludeCorners: corners,
		})
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || len(g.adjncy)/2 != 0 {
		t.Error("empty graph not empty")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
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
