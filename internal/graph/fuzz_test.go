package graph

import (
	"sort"
	"testing"
)

// decodeEdgeStream turns fuzz bytes into a vertex count and an edge list.
// Layout: byte 0 picks n in [2, 65]; each following 3-byte record (u, v, w)
// is an edge u%n -- v%n with weight w%16+1, skipping self-loops. Duplicate
// records are kept: accumulating them is exactly the Builder semantics the
// round-trip must preserve.
func decodeEdgeStream(data []byte) (n int, eu, ev []int, ew []int32) {
	if len(data) == 0 {
		return 2, nil, nil, nil
	}
	n = int(data[0])%64 + 2
	data = data[1:]
	for len(data) >= 3 {
		u := int(data[0]) % n
		v := int(data[1]) % n
		w := int32(data[2])%16 + 1
		data = data[3:]
		if u == v {
			continue
		}
		eu = append(eu, u)
		ev = append(ev, v)
		ew = append(ew, w)
	}
	return n, eu, ev, ew
}

// FuzzGraphCSR feeds random element/edge streams through both graph
// construction paths and requires bit-identical CSR output: the accumulating
// Builder (counting-sort + per-row merge) against FromAdjacency fed from an
// independently accumulated sorted-row view of the same multiset of edges.
func FuzzGraphCSR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// A triangle with a duplicate edge.
	f.Add([]byte{1, 0, 1, 3, 1, 2, 5, 0, 2, 1, 0, 1, 2})
	// Dense-ish stream on a small vertex set.
	f.Add([]byte{4, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 0, 6, 0, 3, 7, 1, 4, 8})
	// Max weight and same edge in both directions.
	f.Add([]byte{2, 0, 1, 15, 1, 0, 15, 2, 3, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, eu, ev, ew := decodeEdgeStream(data)

		// Path 1: the accumulating Builder.
		b := NewBuilder(n)
		for i := range eu {
			if err := b.AddEdge(eu[i], ev[i], ew[i]); err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", eu[i], ev[i], err)
			}
		}
		want := b.Build()

		// Path 2: accumulate the same multiset into per-vertex sorted rows
		// with a map (an implementation unrelated to both production paths),
		// then stream it through FromAdjacency.
		acc := make([]map[int]int32, n)
		for i := range acc {
			acc[i] = make(map[int]int32)
		}
		for i := range eu {
			acc[eu[i]][ev[i]] += ew[i]
			acc[ev[i]][eu[i]] += ew[i]
		}
		rowIDs := make([][]int, n)
		for v := range acc {
			for u := range acc[v] {
				rowIDs[v] = append(rowIDs[v], u)
			}
			sort.Ints(rowIDs[v])
		}
		got, err := FromAdjacency(n, blockRows(func(v int, emit func(int, int32)) {
			for _, u := range rowIDs[v] {
				emit(u, acc[v][u])
			}
		}))
		if err != nil {
			t.Fatalf("FromAdjacency: %v", err)
		}

		if !graphsEqual(got, want) {
			t.Fatalf("CSR mismatch for %d vertices, %d edge records:\nbuilder xadj=%v adj=%v wgt=%v\nstream  xadj=%v adj=%v wgt=%v",
				n, len(eu), want.xadj, want.adjncy, want.adjwgt, got.xadj, got.adjncy, got.adjwgt)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("streamed graph invalid: %v", err)
		}
	})
}
