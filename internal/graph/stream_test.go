package graph

import (
	"runtime"
	"testing"

	"sfccube/internal/mesh"
)

func graphsEqual(a, b *Graph) bool {
	eq32 := func(x, y []int32) bool {
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
	return eq32(a.xadj, b.xadj) && eq32(a.adjncy, b.adjncy) &&
		eq32(a.adjwgt, b.adjwgt) && eq32(a.vwgt, b.vwgt) && eq32(a.vsize, b.vsize)
}

// TestFromAdjacencyMatchesBuilder checks the exact-size streaming build
// reproduces the accumulating Builder bit-for-bit on mesh graphs.
func TestFromAdjacencyMatchesBuilder(t *testing.T) {
	for _, ne := range []int{1, 2, 4, 6, 9} {
		m := mustMesh(t, ne)
		opt := DefaultOptions()
		got, err := FromMesh(m, opt)
		if err != nil {
			t.Fatalf("ne=%d: FromMesh: %v", ne, err)
		}
		// Oracle: the old Builder-based construction.
		k := m.NumElems()
		b := NewBuilder(k)
		for e := 0; e < k; e++ {
			id := mesh.ElemID(e)
			for _, n := range m.EdgeNeighbors(id) {
				if n > id {
					if err := b.AddEdge(e, int(n), opt.EdgeWeight); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, n := range m.CornerNeighbors(id) {
				if n > id {
					if err := b.AddEdge(e, int(n), opt.CornerWeight); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want := b.Build()
		if !graphsEqual(got, want) {
			t.Fatalf("ne=%d: streaming FromMesh differs from Builder oracle", ne)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("ne=%d: %v", ne, err)
		}
	}
}

// TestFromMeshGOMAXPROCSInvariant pins the byte-identical contract of the
// parallel CSR passes: chunked construction at GOMAXPROCS=4 equals serial.
func TestFromMeshGOMAXPROCSInvariant(t *testing.T) {
	md, err := mesh.New(12)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Graph {
		g, err := FromMesh(md, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	prev := runtime.GOMAXPROCS(1)
	serial := build()
	runtime.GOMAXPROCS(4)
	parallel := build()
	runtime.GOMAXPROCS(prev)
	if !graphsEqual(serial, parallel) {
		t.Fatal("FromMesh output differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestFromAdjacencyRejectsBadRows covers every per-row validation branch.
func TestFromAdjacencyRejectsBadRows(t *testing.T) {
	mk := func(rows RowFunc) func() RowFunc {
		return func() RowFunc { return rows }
	}
	cases := []struct {
		name string
		n    int
		rows RowFunc
	}{
		{"out-of-range", 2, func(v int, emit func(int, int32)) { emit(5, 1) }},
		{"negative-neighbour", 2, func(v int, emit func(int, int32)) { emit(-1, 1) }},
		{"self-loop", 2, func(v int, emit func(int, int32)) { emit(v, 1) }},
		{"unsorted", 3, func(v int, emit func(int, int32)) {
			if v == 0 {
				emit(2, 1)
				emit(1, 1)
			}
		}},
		{"duplicate", 3, func(v int, emit func(int, int32)) {
			if v == 0 {
				emit(1, 1)
				emit(1, 1)
			}
		}},
		{"non-positive-weight", 2, func(v int, emit func(int, int32)) { emit(1-v, 0) }},
	}
	for _, c := range cases {
		if _, err := FromAdjacency(c.n, mk(c.rows)); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
	if _, err := FromAdjacency(-1, nil); err == nil {
		t.Error("negative vertex count: want error, got nil")
	}
}

// TestFromAdjacencyDegreeMismatch checks that a RowFunc violating the
// replayability contract (different emissions between the degree and fill
// passes) is detected in both directions.
func TestFromAdjacencyDegreeMismatch(t *testing.T) {
	grow := func() RowFunc {
		pass := 0
		return func(v int, emit func(int, int32)) {
			pass++
			emit((v+1)%2, 1)
			if pass > 2 { // second pass emits an extra neighbour
				emit(v, 1)
			}
		}
	}
	// Single shared instance so the pass counter spans both passes.
	shared := grow()
	if _, err := FromAdjacency(2, func() RowFunc { return shared }); err == nil {
		t.Error("over-emitting fill pass: want error, got nil")
	}
	shrinkShared := func() RowFunc {
		pass := 0
		return func(v int, emit func(int, int32)) {
			pass++
			if pass <= 2 {
				emit((v+1)%2, 1)
			}
		}
	}()
	if _, err := FromAdjacency(2, func() RowFunc { return shrinkShared }); err == nil {
		t.Error("under-emitting fill pass: want error, got nil")
	}
}

// TestValidateCatchesCorruptedRowPointer is the mutation-style non-vacuity
// check required by the scale-tier test policy: corrupting a row pointer (or
// adjacency entry, or weight) of an otherwise valid CSR graph must be caught
// by Validate. If these ever pass silently, the oracle has gone vacuous.
func TestValidateCatchesCorruptedRowPointer(t *testing.T) {
	fresh := func() *Graph {
		g, err := FromMesh(mustMesh(t, 4), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("baseline graph invalid: %v", err)
	}

	mutations := []struct {
		name   string
		mutate func(g *Graph)
	}{
		{"row-pointer-shift", func(g *Graph) { g.xadj[1]++ }},
		{"row-pointer-negative-row", func(g *Graph) { g.xadj[2] = g.xadj[1] - 1 }},
		{"total-mismatch", func(g *Graph) { g.xadj[g.NumVertices()]-- }},
		{"adjacency-out-of-range", func(g *Graph) { g.adjncy[0] = int32(g.NumVertices()) }},
		{"adjacency-self-loop", func(g *Graph) { g.adjncy[g.xadj[1]] = 1 }},
		{"adjacency-unsorted", func(g *Graph) {
			row := g.Adj(0)
			row[0], row[1] = row[1], row[0]
		}},
		{"weight-asymmetric", func(g *Graph) { g.adjwgt[0] += 3 }},
		{"weight-non-positive", func(g *Graph) { g.adjwgt[0] = 0 }},
	}
	for _, mu := range mutations {
		g := fresh()
		mu.mutate(g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %q: Validate accepted a corrupted graph", mu.name)
		}
	}
}

// TestFromMeshMemoryCeiling asserts the streaming build cannot silently
// regress to O(edges) temporaries: total allocation during FromMesh must
// stay within a small factor of the final CSR payload.
// The retired edge-list path allocated >3x the CSR in half-edge arrays
// alone, so a 2x ceiling fails loudly on any such regression.
func TestFromMeshMemoryCeiling(t *testing.T) {
	md, err := mesh.New(48)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up build, outside the measurement.
	g, err := FromMesh(md, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	csrBytes := int64(4 * (len(g.xadj) + len(g.adjncy) + len(g.adjwgt) + len(g.vwgt) + len(g.vsize)))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		if _, err := FromMesh(md, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBuild := int64(after.TotalAlloc-before.TotalAlloc) / rounds

	ceiling := csrBytes * 2
	if perBuild > ceiling {
		t.Errorf("FromMesh allocated %d bytes/build for a %d-byte CSR (ceiling %d): streaming build regressed to O(edges) temporaries?",
			perBuild, csrBytes, ceiling)
	}
}

func BenchmarkFromMeshNe48(b *testing.B) {
	md, err := mesh.New(48)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromMesh(md, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMeshViewRowsAllocFree: the on-demand view answers
// every row — interior, face boundary, cube corner — without allocating, and
// with the rows the CSR build froze.
func TestMeshViewRowsAllocFree(t *testing.T) {
	md, err := mesh.New(6)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromMesh(md, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewMeshView(md, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	adj, wts := make([]int32, 0, 8), make([]int32, 0, 8)
	allocs := testing.AllocsPerRun(10, func() {
		for v := 0; v < view.NumVertices(); v++ {
			adj, wts = view.Row(v, adj, wts)
			a, w := g.Row(v, nil, nil)
			if len(adj) != len(a) {
				t.Fatalf("vertex %d: view row %v, CSR row %v", v, adj, a)
			}
			for i := range a {
				if adj[i] != a[i] || wts[i] != w[i] {
					t.Fatalf("vertex %d: view row %v/%v, CSR row %v/%v", v, adj, wts, a, w)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("MeshView.Row allocated %.0f times per sweep, want 0", allocs)
	}
	if view.VertexWeight(3) != 1 || view.VertexSize(3) != 1 {
		t.Error("default vertex weight/size is not 1")
	}
	if err := view.SetVertexWeights([]int32{1}); err == nil {
		t.Error("short weight vector accepted")
	}
}
