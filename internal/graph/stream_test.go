package graph

import (
	"runtime"
	"slices"
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

// builderOracle is the mesh graph built the slow way: the accumulating
// Builder fed one edge at a time from the mesh's neighbour lists (which go
// through NeighborsInto, never through the view's interior fast path).
func builderOracle(t *testing.T, m *mesh.Mesh, opt Options) *Graph {
	t.Helper()
	k := m.NumElems()
	b := NewBuilder(k)
	add := func(e int, nbrs []mesh.ElemID, w int32) {
		for _, n := range nbrs {
			if int(n) > e {
				if err := b.AddEdge(e, int(n), w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for e := 0; e < k; e++ {
		add(e, m.EdgeNeighbors(mesh.ElemID(e)), opt.EdgeWeight)
		if opt.IncludeCorners {
			add(e, m.CornerNeighbors(mesh.ElemID(e)), opt.CornerWeight)
		}
	}
	return b.Build()
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
		if !graphsEqual(got, builderOracle(t, m, opt)) {
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

// rowsFunc is the producer signature of FromAdjacency.
type rowsFunc = func(lo, hi int, ptrBuf, adjBuf, wtBuf []int32) (ptr, adj, wts []int32)

// blockRows turns a per-row description into a block-filling producer: it
// appends what row emits for each vertex of the block to the buffers handed
// in, the way MeshView's rows do.
func blockRows(row func(v int, emit func(u int, w int32))) rowsFunc {
	return func(lo, hi int, ptr, adj, wts []int32) ([]int32, []int32, []int32) {
		ptr, adj, wts = append(ptr[:0], 0), adj[:0], wts[:0]
		for v := lo; v < hi; v++ {
			row(v, func(u int, w int32) { adj, wts = append(adj, int32(u)), append(wts, w) })
			ptr = append(ptr, int32(len(adj)))
		}
		return ptr, adj, wts
	}
}

// TestFromAdjacencyRejectsBadRows covers every per-row and per-block
// validation branch.
func TestFromAdjacencyRejectsBadRows(t *testing.T) {
	pair := blockRows(func(v int, emit func(int, int32)) { emit(1-v, 1) }) // the valid graph 0 -- 1
	cases := []struct {
		name string
		n    int
		rows rowsFunc
	}{
		{"out-of-range", 2, blockRows(func(v int, emit func(int, int32)) { emit(5, 1) })},
		{"negative-neighbour", 2, blockRows(func(v int, emit func(int, int32)) { emit(-1, 1) })},
		{"self-loop", 2, blockRows(func(v int, emit func(int, int32)) { emit(v, 1) })},
		{"unsorted", 3, blockRows(func(v int, emit func(int, int32)) {
			if v == 0 {
				emit(2, 1)
				emit(1, 1)
			}
		})},
		{"duplicate", 3, blockRows(func(v int, emit func(int, int32)) {
			if v == 0 {
				emit(1, 1)
				emit(1, 1)
			}
		})},
		{"non-positive-weight", 2, blockRows(func(v int, emit func(int, int32)) { emit(1-v, 0) })},
		// In place or not at all: a producer that returns correct rows in
		// slices of its own, instead of the buffers it was handed.
		{"reallocated-adj", 2, func(lo, hi int, ptr, _, wts []int32) ([]int32, []int32, []int32) {
			ptr, _, wts = pair(lo, hi, ptr, nil, wts)
			return ptr, []int32{1, 0}, wts
		}},
		{"reallocated-wts", 2, func(lo, hi int, ptr, adj, _ []int32) ([]int32, []int32, []int32) {
			ptr, adj, _ = pair(lo, hi, ptr, adj, nil)
			return ptr, adj, []int32{1, 1}
		}},
		{"short-ptr", 2, func(lo, hi int, ptr, adj, wts []int32) ([]int32, []int32, []int32) {
			ptr, adj, wts = pair(lo, hi, ptr, adj, wts)
			return ptr[:len(ptr)-1], adj, wts
		}},
		{"ptr-not-from-zero", 2, func(lo, hi int, ptr, adj, wts []int32) ([]int32, []int32, []int32) {
			ptr, adj, wts = pair(lo, hi, ptr, adj, wts)
			for i := range ptr {
				ptr[i]++
			}
			return ptr, adj, wts
		}},
		{"ptr-not-monotone", 2, func(lo, hi int, ptr, adj, wts []int32) ([]int32, []int32, []int32) {
			ptr, adj, wts = pair(lo, hi, ptr, adj, wts)
			ptr[1] = 3
			return ptr, adj, wts
		}},
	}
	if _, err := FromAdjacency(2, pair); err != nil {
		t.Fatalf("valid producer rejected: %v", err)
	}
	for _, c := range cases {
		if _, err := FromAdjacency(c.n, c.rows); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
	if _, err := FromAdjacency(-1, nil); err == nil {
		t.Error("negative vertex count: want error, got nil")
	}
}

// TestFromAdjacencyDegreeMismatch checks that a producer violating the
// replayability contract (different rows between the degree and fill
// passes) is detected in both directions.
func TestFromAdjacencyDegreeMismatch(t *testing.T) {
	// One shared closure per case, so its row counter spans both passes.
	pass := 0
	grow := blockRows(func(v int, emit func(int, int32)) {
		pass++
		emit((v+1)%2, 1)
		if pass > 2 { // second pass emits an extra neighbour
			emit(v, 1)
		}
	})
	if _, err := FromAdjacency(2, grow); err == nil {
		t.Error("over-emitting fill pass: want error, got nil")
	}
	pass = 0
	shrink := blockRows(func(v int, emit func(int, int32)) {
		pass++
		if pass <= 2 {
			emit((v+1)%2, 1)
		}
	})
	if _, err := FromAdjacency(2, shrink); err == nil {
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

// TestMeshViewRowsMatchOracle: whatever window of rows the on-demand view is
// asked for — the whole mesh, one vertex, one starting and ending mid-row,
// one straddling a face boundary — it returns the Builder oracle's rows, and
// with buffers of capacity 8 per row it does not allocate. The oracle never
// touches the index arithmetic of the view's face-interior fast path, and
// every oracle row is the view's Stencil read over the element's face padded
// with the mesh's seam strips.
func TestMeshViewRowsMatchOracle(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 4, 6, 9} {
		for _, corners := range []bool{true, false} {
			m := mustMesh(t, ne)
			opt := DefaultOptions()
			opt.IncludeCorners = corners
			want := builderOracle(t, m, opt)
			view := NewMeshView(m, opt)
			k, n2 := view.NumVertices(), ne*ne
			windows := [][2]int{
				{0, k},
				{n2 + ne/2, min(k, n2+ne/2+2*ne+1)},        // starts and ends mid-row
				{max(0, n2-ne/2-1), n2 + ne/2 + 1},         // straddles faces 0 | 1
				{5*n2 - 1, k},                              // last face and a bit
				{max(0, 3*n2-ne-2), min(k, 3*n2+2*ne+140)}, // long, across faces 2 | 3
			}
			for v := 0; v < k; v++ {
				windows = append(windows, [2]int{v, v + 1})
			}
			ptr, adj, wts := make([]int32, 0, k+1), make([]int32, 0, 8*k), make([]int32, 0, 8*k)
			sweep := func() {
				for _, w := range windows {
					lo, hi := w[0], w[1]
					ptr, adj, wts := view.rows(lo, hi, ptr[:0:hi-lo+1], adj[:0:8*(hi-lo)], wts[:0:8*(hi-lo)])
					if len(ptr) != hi-lo+1 || ptr[0] != 0 {
						t.Fatalf("ne=%d corners=%v [%d,%d): row pointers %v", ne, corners, lo, hi, ptr)
					}
					for v := lo; v < hi; v++ {
						a, w := adj[ptr[v-lo]:ptr[v-lo+1]], wts[ptr[v-lo]:ptr[v-lo+1]]
						if !slices.Equal(a, want.Adj(v)) || !slices.Equal(w, want.AdjWeights(v)) {
							t.Fatalf("ne=%d corners=%v [%d,%d) vertex %d: view row %v/%v, oracle row %v/%v",
								ne, corners, lo, hi, v, a, w, want.Adj(v), want.AdjWeights(v))
						}
					}
				}
			}
			if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
				t.Errorf("ne=%d corners=%v: MeshView.rows allocated %.0f times per sweep, want 0", ne, corners, allocs)
			}
			// The padded stencil, its halo filled from the seam strips, gives
			// every element's oracle row; a cube-corner halo cell (-1 here)
			// is no neighbour.
			vm, offs, sw := view.Stencil()
			if vm != m {
				t.Errorf("Stencil reports another mesh")
			}
			w := ne + 2
			cell := make([]int, w*w) // padded cell -> element
			type entry struct{ u, w int32 }
			for f := range mesh.NumFaces {
				for x := range cell {
					cell[x] = -1
				}
				for j := range ne {
					for i := range ne {
						cell[(j+1)*w+i+1] = f*n2 + j*ne + i
					}
				}
				for side, h := range [4][2]int{{w, w}, {w + ne + 1, w}, {1, 1}, {(ne+1)*w + 1, 1}} {
					first, step := m.SeamStrip(mesh.Face(f), side)
					for p := range ne {
						cell[h[0]+p*h[1]] = int(first) + p*step
					}
				}
				for j := range ne {
					for i := range ne {
						x := (j+1)*w + i + 1
						var row []entry
						for k, o := range offs {
							if u := cell[x+int(o)]; u >= 0 {
								row = append(row, entry{int32(u), sw[k]})
							}
						}
						slices.SortFunc(row, func(a, b entry) int { return int(a.u - b.u) })
						v := cell[x]
						adj, wts := want.Adj(v), want.AdjWeights(v)
						if len(row) != len(adj) {
							t.Fatalf("ne=%d corners=%v vertex %d: stencil row %v, oracle row %v/%v", ne, corners, v, row, adj, wts)
						}
						for k, e := range row {
							if e.u != adj[k] || e.w != wts[k] {
								t.Fatalf("ne=%d corners=%v vertex %d: stencil row %v, oracle row %v/%v", ne, corners, v, row, adj, wts)
							}
						}
					}
				}
			}
		}
	}
}
