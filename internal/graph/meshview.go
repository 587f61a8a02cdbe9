package graph

import (
	"fmt"

	"sfccube/internal/mesh"
)

// MeshView is the partitioning graph of a cubed-sphere mesh read without
// being stored: every row is resolved on demand from the mesh's analytic
// adjacency and weighted by the Options. It holds O(1) state beyond the mesh
// and the optional weight vectors, and its rows are exactly the rows FromMesh
// freezes into CSR form — FromMesh is "stream this view into a Graph".
// Safe for concurrent readers.
type MeshView struct {
	m   *mesh.Mesh
	opt Options
}

// NewMeshView validates opt against m (zero edge and corner weights mean 1;
// vertex weights and sizes, when given, must be positive and one per
// element) and returns the on-demand view.
func NewMeshView(m *mesh.Mesh, opt Options) (*MeshView, error) {
	if opt.EdgeWeight == 0 {
		opt.EdgeWeight = 1
	}
	if opt.CornerWeight == 0 {
		opt.CornerWeight = 1
	}
	if err := checkPositive("weight", opt.VertexWeights, m.NumElems()); err != nil {
		return nil, err
	}
	if err := checkPositive("size", opt.VertexSizes, m.NumElems()); err != nil {
		return nil, err
	}
	return &MeshView{m: m, opt: opt}, nil
}

// checkPositive validates an optional per-element vector of k positive values.
func checkPositive(what string, w []int32, k int) error {
	if w != nil && len(w) != k {
		return fmt.Errorf("graph: %d vertex %ss for %d elements", len(w), what, k)
	}
	for v, x := range w {
		if x <= 0 {
			return fmt.Errorf("graph: non-positive vertex %s %d on element %d", what, x, v)
		}
	}
	return nil
}

// NumVertices returns the number of elements of the mesh.
func (mv *MeshView) NumVertices() int { return mv.m.NumElems() }

// Row writes the neighbours of v, ascending, and the parallel edge weights
// into adjBuf and wtBuf (from length 0, growing them if needed) and returns
// them. Edge and corner neighbour sets are disjoint and each sorted, so a
// two-way merge yields the full row in order. With buffers of capacity 8 the
// call does not allocate.
func (mv *MeshView) Row(v int, adjBuf, wtBuf []int32) (adj, wts []int32) {
	var eb, cb [4]mesh.ElemID
	e, c := mv.m.NeighborsInto(mesh.ElemID(v), eb[:0], cb[:0])
	if !mv.opt.IncludeCorners {
		c = nil
	}
	adj, wts = adjBuf[:0], wtBuf[:0]
	for len(e) > 0 || len(c) > 0 {
		if len(c) == 0 || (len(e) > 0 && e[0] < c[0]) {
			adj, wts = append(adj, int32(e[0])), append(wts, mv.opt.EdgeWeight)
			e = e[1:]
		} else {
			adj, wts = append(adj, int32(c[0])), append(wts, mv.opt.CornerWeight)
			c = c[1:]
		}
	}
	return adj, wts
}

// VertexWeight returns the computation weight of element v (1 when the view
// carries no weight vector).
func (mv *MeshView) VertexWeight(v int) int32 {
	if mv.opt.VertexWeights == nil {
		return 1
	}
	return mv.opt.VertexWeights[v]
}

// VertexSize returns the communication volume contributed by v when cut.
func (mv *MeshView) VertexSize(v int) int32 {
	if mv.opt.VertexSizes == nil {
		return 1
	}
	return mv.opt.VertexSizes[v]
}

// SetVertexWeights replaces the vertex weights, like Graph.SetVertexWeights
// (zeros allowed); the view keeps w, which must not be modified afterwards.
func (mv *MeshView) SetVertexWeights(w []int32) error {
	if len(w) != mv.NumVertices() {
		return fmt.Errorf("graph: %d vertex weights for %d vertices", len(w), mv.NumVertices())
	}
	mv.opt.VertexWeights = w
	return nil
}
