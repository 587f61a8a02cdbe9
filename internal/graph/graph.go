// Package graph provides the undirected weighted graph model used for mesh
// partitioning (Dennis, IPPS 2003, section 2): vertices are spectral elements
// with a weight representing the computation associated with the element, and
// edges connect neighbouring elements with a weight representing the amount
// of information exchanged across the shared boundary.
//
// Graphs are stored in compressed sparse row (CSR) form, the representation
// METIS itself uses, so coarsening and refinement are cache-friendly.
package graph

import (
	"fmt"
	"sort"

	"sfccube/internal/mesh"
)

// Graph is an undirected graph in CSR form. For every undirected edge {u,v}
// both directions are stored: v appears in Adj(u) and u in Adj(v), with equal
// weights. The zero value is an empty graph.
type Graph struct {
	xadj   []int32 // length NumVertices+1; Adj(v) = adjncy[xadj[v]:xadj[v+1]]
	adjncy []int32
	adjwgt []int32 // edge weights, parallel to adjncy
	vwgt   []int32 // vertex weights, length NumVertices

	// vsize is the "communication volume" contributed by each vertex when
	// any of its edges is cut (METIS's vsize); used by the TV objective.
	vsize []int32
}

// Builder accumulates edges before freezing them into CSR form.
//
// Edges are recorded in an append-only half-edge list (both directions of
// every undirected edge) and deduplicated by a counting-sort bucket pass plus
// a per-row sort/merge in Build. This keeps AddEdge allocation-free after
// the first few appends and makes Build O(E log deg) with two contiguous
// passes, instead of the former per-vertex hash maps whose construction
// dominated graph building at production mesh sizes.
type Builder struct {
	n     int
	vwgt  []int32
	vsize []int32
	// Half-edge list: the i-th recorded half edge is eu[i] -> ev[i] with
	// weight ew[i]. AddEdge appends both directions so Build can bucket by
	// source vertex alone.
	eu, ev []int32
	ew     []int32
}

// NewBuilder creates a builder for a graph with n vertices, all with unit
// vertex weight and unit communication size.
func NewBuilder(n int) *Builder {
	b := &Builder{
		n:     n,
		vwgt:  make([]int32, n),
		vsize: make([]int32, n),
	}
	for i := range b.vwgt {
		b.vwgt[i] = 1
		b.vsize[i] = 1
	}
	return b
}

// SetVertexWeight sets the computation weight of vertex v.
func (b *Builder) SetVertexWeight(v int, w int32) { b.vwgt[v] = w }

// SetVertexSize sets the communication volume contributed by v when cut.
func (b *Builder) SetVertexSize(v int, s int32) { b.vsize[v] = s }

// AddEdge records the undirected edge {u, v} with the given weight. Adding
// the same edge again accumulates weight. Self-loops are rejected.
func (b *Builder) AddEdge(u, v int, w int32) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	b.eu = append(b.eu, int32(u), int32(v))
	b.ev = append(b.ev, int32(v), int32(u))
	b.ew = append(b.ew, w, w)
	return nil
}

// Build freezes the builder into a CSR graph with sorted adjacency lists.
// Duplicate recordings of the same undirected edge are merged with their
// weights accumulated, matching AddEdge's documented semantics.
func (b *Builder) Build() *Graph {
	g := &Graph{
		xadj:  make([]int32, b.n+1),
		vwgt:  append([]int32(nil), b.vwgt...),
		vsize: append([]int32(nil), b.vsize...),
	}
	// Pass 1: counting sort of the half edges by source vertex.
	cnt := make([]int32, b.n+1)
	for _, u := range b.eu {
		cnt[u+1]++
	}
	for i := 0; i < b.n; i++ {
		cnt[i+1] += cnt[i]
	}
	pos := append([]int32(nil), cnt...) // next write offset per row
	adj := make([]int32, len(b.eu))
	wgt := make([]int32, len(b.eu))
	for i, u := range b.eu {
		p := pos[u]
		adj[p] = b.ev[i]
		wgt[p] = b.ew[i]
		pos[u] = p + 1
	}
	// Pass 2: per-row sort by neighbour, then in-place merge of duplicates
	// accumulating weights. Rows shrink, so the merged graph is compacted
	// into the front of adj/wgt.
	out := int32(0)
	for u := 0; u < b.n; u++ {
		lo, hi := cnt[u], cnt[u+1]
		row := adj[lo:hi]
		rw := wgt[lo:hi]
		sort.Sort(&rowSorter{row, rw})
		for i := 0; i < len(row); i++ {
			if out > 0 && int32(out) > g.xadj[u] && adj[out-1] == row[i] {
				// Same neighbour as the previous kept entry of this row:
				// accumulate the weight (duplicate AddEdge).
				wgt[out-1] += rw[i]
				continue
			}
			adj[out] = row[i]
			wgt[out] = rw[i]
			out++
		}
		g.xadj[u+1] = out
	}
	g.adjncy = adj[:out:out]
	g.adjwgt = wgt[:out:out]
	return g
}

// rowSorter sorts one adjacency row by neighbour id, carrying weights along.
type rowSorter struct {
	adj []int32
	wgt []int32
}

func (r *rowSorter) Len() int           { return len(r.adj) }
func (r *rowSorter) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *rowSorter) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wgt[i], r.wgt[j] = r.wgt[j], r.wgt[i]
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vwgt) }

// Adj returns the neighbours of v. The slice aliases graph storage.
func (g *Graph) Adj(v int) []int32 { return g.adjncy[g.xadj[v]:g.xadj[v+1]] }

// AdjWeights returns the edge weights parallel to Adj(v).
func (g *Graph) AdjWeights(v int) []int32 { return g.adjwgt[g.xadj[v]:g.xadj[v+1]] }

// VertexWeight returns the computation weight of v.
func (g *Graph) VertexWeight(v int) int32 { return g.vwgt[v] }

// VertexSize returns the communication volume contributed by v when cut.
func (g *Graph) VertexSize(v int) int32 { return g.vsize[v] }

// CSR returns the graph's storage: row v is adjncy[xadj[v]:xadj[v+1]] with
// adjwgt parallel. The slices alias the graph and are read-only.
func (g *Graph) CSR() (xadj, adjncy, adjwgt []int32) { return g.xadj, g.adjncy, g.adjwgt }

// VertexWeights returns every vertex weight; the slice aliases graph storage.
func (g *Graph) VertexWeights() []int32 { return g.vwgt }

// VertexSizes returns every vertex size; the slice aliases graph storage.
func (g *Graph) VertexSizes() []int32 { return g.vsize }

// SetVertexWeights replaces every vertex weight. Used to attach non-uniform
// computation costs to graphs built from adjacency streams (e.g. AMR
// forests), which FromAdjacency creates with unit weights.
func (g *Graph) SetVertexWeights(w []int32) error {
	if len(w) != len(g.vwgt) {
		return fmt.Errorf("graph: %d vertex weights for %d vertices", len(w), len(g.vwgt))
	}
	copy(g.vwgt, w)
	return nil
}

// EdgeWeightBetween returns the weight of edge {u,v}, or 0 if absent.
// Adjacency lists are sorted, so this is a binary search.
func (g *Graph) EdgeWeightBetween(u, v int) int32 {
	adj := g.Adj(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	if i < len(adj) && adj[i] == int32(v) {
		return g.AdjWeights(u)[i]
	}
	return 0
}

// Validate checks CSR structural invariants: sorted adjacency, symmetry of
// both edges and weights, no self-loops, positive weights.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.xadj) != n+1 || g.xadj[0] != 0 || int(g.xadj[n]) != len(g.adjncy) {
		return fmt.Errorf("graph: bad xadj structure")
	}
	for v := 0; v < n; v++ {
		if g.xadj[v+1] < g.xadj[v] {
			return fmt.Errorf("graph: row pointer of %d not monotone", v)
		}
	}
	for v := 0; v < n; v++ {
		adj, wts := g.Adj(v), g.AdjWeights(v)
		for i, u := range adj {
			if u == int32(v) {
				return fmt.Errorf("graph: self-loop on %d", v)
			}
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, u)
			}
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if wts[i] <= 0 {
				return fmt.Errorf("graph: non-positive weight on edge (%d,%d)", v, u)
			}
			if g.EdgeWeightBetween(int(u), v) != wts[i] {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}

// Options configures how a mesh is turned into a partitioning graph.
type Options struct {
	// EdgeWeight is the weight of a shared element boundary. In SEAM a
	// boundary exchanges one row of np Gauss-Lobatto-Legendre points, so
	// the natural weight is np. Zero means 1.
	EdgeWeight int32
	// CornerWeight is the weight of a shared corner point (a single GLL
	// point). Zero means 1. Set IncludeCorners=false to omit corner edges
	// entirely.
	CornerWeight int32
	// IncludeCorners includes corner-sharing neighbour pairs as graph
	// edges, as the paper does ("neighboring elements that share a
	// boundary or corner point").
	IncludeCorners bool
}

// DefaultOptions matches the paper's setup: boundary and corner edges with
// weights proportional to the number of shared GLL points (np=8 boundary
// points, 1 corner point).
func DefaultOptions() Options {
	return Options{EdgeWeight: 8, CornerWeight: 1, IncludeCorners: true}
}

// FromMesh builds the partitioning graph of a cubed-sphere mesh by streaming
// the row blocks of its MeshView straight into exactly-sized CSR arrays
// (FromAdjacency): no intermediate edge list is materialised, so the peak
// footprint is the final graph plus O(1) per-worker row buffers. The mesh
// stores no adjacency of its own, so the dual graph is never held twice in
// any form. Every vertex weighs 1; Graph.SetVertexWeights attaches
// computation weights.
func FromMesh(m *mesh.Mesh, opt Options) (*Graph, error) {
	view := NewMeshView(m, opt)
	return FromAdjacency(view.NumVertices(), view.rows)
}
