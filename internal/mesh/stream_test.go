package mesh

import (
	"sort"
	"testing"
)

// oracleTopology is the original map-based topology construction: group
// elements around every shared corner node, count shared nodes per element
// pair, and classify pairs with >= 2 shared nodes as edge neighbours and
// exactly 1 as corner neighbours. It is O(K) maps and retired from the
// production path, but remains the ground truth the analytic resolver must
// reproduce exactly.
func oracleTopology(m *Mesh) (edge, corner [][]ElemID) {
	k := m.NumElems()
	nodeElems := make(map[nodeKey][]ElemID, 4*k)
	for f := Face(0); f < NumFaces; f++ {
		for j := 0; j < m.ne; j++ {
			for i := 0; i < m.ne; i++ {
				id := m.ID(f, i, j)
				for _, c := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
					key := m.PointKey(id, 1, c[0], c[1])
					nodeElems[key] = append(nodeElems[key], id)
				}
			}
		}
	}
	shared := make([]map[ElemID]int, k)
	for i := range shared {
		shared[i] = make(map[ElemID]int, 8)
	}
	for _, elems := range nodeElems {
		for a := 0; a < len(elems); a++ {
			for b := a + 1; b < len(elems); b++ {
				e1, e2 := elems[a], elems[b]
				if e1 == e2 {
					continue
				}
				shared[e1][e2]++
				shared[e2][e1]++
			}
		}
	}
	edge = make([][]ElemID, k)
	corner = make([][]ElemID, k)
	for e := 0; e < k; e++ {
		var en, cn []ElemID
		for nbr, cnt := range shared[e] {
			switch {
			case cnt >= 2:
				en = append(en, nbr)
			case cnt == 1:
				cn = append(cn, nbr)
			}
		}
		sort.Slice(en, func(a, b int) bool { return en[a] < en[b] })
		sort.Slice(cn, func(a, b int) bool { return cn[a] < cn[b] })
		edge[e] = en
		corner[e] = cn
	}
	return edge, corner
}

func elemSlicesEqual(a, b []ElemID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAnalyticAdjacencyMatchesOracle checks the analytic resolver against the
// retired map-based construction, for every element at a spread of mesh
// sizes including the degenerate ne=1 cube and the even/odd boundary cases.
func TestAnalyticAdjacencyMatchesOracle(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 48} {
		m := mustMesh(t, ne)
		wantE, wantC := oracleTopology(m)
		var ebuf, cbuf []ElemID
		for e := 0; e < m.NumElems(); e++ {
			id := ElemID(e)
			if got := m.EdgeNeighbors(id); !elemSlicesEqual(got, wantE[e]) {
				t.Fatalf("ne=%d elem %d: EdgeNeighbors=%v, oracle %v", ne, e, got, wantE[e])
			}
			if got := m.CornerNeighbors(id); !elemSlicesEqual(got, wantC[e]) {
				t.Fatalf("ne=%d elem %d: CornerNeighbors=%v, oracle %v", ne, e, got, wantC[e])
			}
			ebuf, cbuf = m.NeighborsInto(id, ebuf[:0], cbuf[:0])
			if !elemSlicesEqual(ebuf, wantE[e]) || !elemSlicesEqual(cbuf, wantC[e]) {
				t.Fatalf("ne=%d elem %d: NeighborsInto=(%v,%v), oracle (%v,%v)",
					ne, e, ebuf, cbuf, wantE[e], wantC[e])
			}
		}
	}
}

// TestNeighborsMatchesOracleUnion checks the merged Neighbors view against
// the sorted union of the oracle's edge and corner lists.
func TestNeighborsMatchesOracleUnion(t *testing.T) {
	m := mustMesh(t, 6)
	wantE, wantC := oracleTopology(m)
	for e := 0; e < m.NumElems(); e++ {
		want := append(append([]ElemID(nil), wantE[e]...), wantC[e]...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if got := m.Neighbors(ElemID(e)); !elemSlicesEqual(got, want) {
			t.Fatalf("elem %d: Neighbors=%v, oracle union %v", e, got, want)
		}
	}
}

// TestNeighborsIntoAllocFree checks the streaming contract: once the caller
// reuses buffers, adjacency queries allocate nothing.
func TestNeighborsIntoAllocFree(t *testing.T) {
	md, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	ebuf := make([]ElemID, 0, 16)
	cbuf := make([]ElemID, 0, 16)
	k := md.NumElems()
	allocs := testing.AllocsPerRun(10, func() {
		for e := 0; e < k; e++ {
			ebuf, cbuf = md.NeighborsInto(ElemID(e), ebuf[:0], cbuf[:0])
		}
	})
	if allocs != 0 {
		t.Errorf("NeighborsInto with reused buffers: %v allocs/run, want 0", allocs)
	}
}

// TestGlueIsInvolution checks the gluing table against what a cube must
// satisfy: crossing a seam and crossing back returns to the same side with the
// same orientation flag, and every face is glued to four distinct faces that
// are neither itself nor the opposite face.
func TestGlueIsInvolution(t *testing.T) {
	for f := Face(0); f < NumFaces; f++ {
		seen := map[Face]bool{}
		for s, g := range glue[f] {
			if back := glue[g.face][g.side]; back != (seam{face: f, side: s, rev: g.rev}) {
				t.Errorf("glue[%v][%d] = %+v, but glue[%v][%d] = %+v", f, s, g, g.face, g.side, back)
			}
			opposite := faceFrames[g.face].c == [3]int{-faceFrames[f].c[0], -faceFrames[f].c[1], -faceFrames[f].c[2]}
			if g.face == f || opposite || seen[g.face] {
				t.Errorf("glue[%v][%d] = %+v: self, opposite or repeated face", f, s, g)
			}
			seen[g.face] = true
		}
	}
}

func BenchmarkNewNe128(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingRow times only the face-boundary ring of Ne=128: the 3 % of
// rows that cross a seam, at ten times and more the cost of an interior row.
func BenchmarkRingRow(b *testing.B) {
	md, err := New(128)
	if err != nil {
		b.Fatal(err)
	}
	var ring []ElemID
	for e := 0; e < md.NumElems(); e++ {
		if el := md.Elem(ElemID(e)); el.I == 0 || el.I == 127 || el.J == 0 || el.J == 127 {
			ring = append(ring, ElemID(e))
		}
	}
	var ebuf, cbuf []ElemID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ebuf, cbuf = md.NeighborsInto(ring[i%len(ring)], ebuf[:0], cbuf[:0])
	}
}

func BenchmarkAdjacencySweepNe48(b *testing.B) {
	md, err := New(48)
	if err != nil {
		b.Fatal(err)
	}
	k := md.NumElems()
	var ebuf, cbuf []ElemID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := 0; e < k; e++ {
			ebuf, cbuf = md.NeighborsInto(ElemID(e), ebuf[:0], cbuf[:0])
		}
	}
}
