package graph

import "sfccube/internal/mesh"

// MeshView is the partitioning graph of a cubed-sphere mesh read without
// being stored, from the mesh's analytic adjacency weighted by the Options.
// It holds O(1) state beyond the mesh and has two readers, which see the
// same edges: FromMesh streams its rows, a block at a time, into CSR form,
// and partition.StatsOver sweeps it a padded face at a time off its Stencil.
// Every element weighs 1 and has communication volume 1: a load model
// travels beside the view as an explicit weight vector (partition.StatsOver).
// Safe for concurrent readers.
type MeshView struct {
	m              *mesh.Mesh
	opt            Options
	offs, pad, wts [8]int32 // first deg entries: offsets on a face (rows) and a padded face (Stencil), weights
	deg            int
}

// NewMeshView returns the on-demand view of m weighted by opt (zero edge and
// corner weights mean 1). It inlines, so a caller that copies the view into
// its own struct (core.Problem) allocates none.
func NewMeshView(m *mesh.Mesh, opt Options) *MeshView {
	mv := new(MeshView)
	mv.init(m, opt)
	return mv
}

func (mv *MeshView) init(m *mesh.Mesh, opt Options) {
	if opt.EdgeWeight == 0 {
		opt.EdgeWeight = 1
	}
	if opt.CornerWeight == 0 {
		opt.CornerWeight = 1
	}
	ne, ew, cw, corners := int32(m.Ne()), opt.EdgeWeight, opt.CornerWeight, opt.IncludeCorners
	*mv = MeshView{m: m, opt: opt, offs: stencil(ne, corners), pad: stencil(ne+2, corners), wts: [8]int32{ew, ew, ew, ew}, deg: 4}
	if corners {
		mv.wts, mv.deg = [8]int32{cw, ew, cw, ew, ew, cw, ew, cw}, 8
	}
}

// stencil returns the neighbour offsets of a cell in a row-major grid of row
// length w, running over rows j-1, j, j+1 in that order (ascending): the four
// edge neighbours and, with corners, the four diagonal ones.
func stencil(w int32, corners bool) [8]int32 {
	if corners {
		return [8]int32{-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1}
	}
	return [8]int32{-w, -1, 1, w}
}

// Stencil reports the mesh and the stencil over a face padded by a
// one-element halo, (Ne+2)² cells in row-major order: the element at padded
// cell x has neighbours at x+offs[k] with weight wts[k], ascending, and
// where a neighbour lies across a seam its cell is in the halo (the strips
// of mesh.SeamStrip). The slices are the view's own and read-only.
func (mv *MeshView) Stencil() (m *mesh.Mesh, offs, wts []int32) {
	return mv.m, mv.pad[:mv.deg], mv.wts[:mv.deg]
}

// NumVertices returns the number of elements of the mesh.
func (mv *MeshView) NumVertices() int { return mv.m.NumElems() }

// rows writes rows [lo, hi) into the buffers (from length 0, growing them if
// needed) and returns them: row v is adj[ptr[v-lo]:ptr[v-lo+1]], ascending,
// with wts parallel. (i, j) is walked incrementally and a face-interior row
// is the face's stencil shifted to its id; only the O(Ne) face-boundary ring asks
// the mesh (NeighborsInto, which steps across the seam through the cube's
// gluing table) and merges the two lists. With adjacency buffers of capacity
// 8*(hi-lo) and a pointer buffer of hi-lo+1 the call does not allocate.
func (mv *MeshView) rows(lo, hi int, ptrBuf, adjBuf, wtBuf []int32) (ptr, adj, wts []int32) {
	ne := mv.m.Ne()
	ew, cw, corners := mv.opt.EdgeWeight, mv.opt.CornerWeight, mv.opt.IncludeCorners
	ptr, adj, wts = append(ptrBuf[:0], 0), adjBuf[:0], wtBuf[:0]
	r := lo % (ne * ne)
	i, j := r%ne, r/ne
	var eb, cb [4]mesh.ElemID
	for v := lo; v < hi; {
		end := v + 1
		if i == 0 || i == ne-1 || j == 0 || j == ne-1 {
			e, c := mv.m.NeighborsInto(mesh.ElemID(v), eb[:0], cb[:0])
			if !corners {
				c = nil
			}
			adj, wts = AppendMerged(adj, wts, e, c, ew, cw)
			ptr = append(ptr, int32(len(adj)))
		} else {
			// The rest of an interior mesh row, up to its last column.
			end = min(hi, v+ne-1-i)
			o, sw := mv.offs, mv.wts[:mv.deg]
			for x := int32(v); x < int32(end); x++ {
				if len(sw) == 8 {
					adj = append(adj, x+o[0], x+o[1], x+o[2], x+o[3], x+o[4], x+o[5], x+o[6], x+o[7])
				} else {
					adj = append(adj, x+o[0], x+o[1], x+o[2], x+o[3])
				}
				wts = append(wts, sw...)
				ptr = append(ptr, int32(len(adj)))
			}
		}
		i, v = i+end-v, end
		if i == ne {
			i = 0
			if j++; j == ne {
				j = 0
			}
		}
	}
	return ptr, adj, wts
}

// AppendMerged appends the merge of two ascending, disjoint neighbour lists
// to adj, and weight ew per entry of e and cw per entry of c to wts: one CSR
// row from its edge and corner neighbours.
func AppendMerged[T ~int | ~int32](adj, wts []int32, e, c []T, ew, cw int32) ([]int32, []int32) {
	for len(e) > 0 || len(c) > 0 {
		if len(c) == 0 || (len(e) > 0 && e[0] < c[0]) {
			adj, wts = append(adj, int32(e[0])), append(wts, ew)
			e = e[1:]
		} else {
			adj, wts = append(adj, int32(c[0])), append(wts, cw)
			c = c[1:]
		}
	}
	return adj, wts
}
