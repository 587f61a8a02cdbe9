// Package mesh implements the cubed-sphere computational domain used by the
// NCAR spectral element atmospheric model (SEAM): the six faces of a cube
// circumscribing the sphere are each subdivided into an Ne x Ne array of
// quadrilateral spectral elements, and a gnomonic projection maps the elements
// onto the surface of the sphere (Dennis, IPPS 2003, section 1 and Figure 1).
//
// For partitioning purposes an element is the indivisible atomic unit assigned
// to a processor. Communication between processors is determined by
// neighbouring elements that share a boundary (an edge) or a corner point.
// The package therefore exposes both edge adjacency and corner adjacency,
// computed exactly from integer corner-node keys on the cube surface so that
// adjacency across cube edges and at the eight cube corners (where only three
// faces meet) needs no special-casing.
//
// Adjacency is resolved analytically: an interior element's eight neighbours
// follow from index arithmetic alone, and only the O(Ne) boundary-ring
// elements consult a prebuilt index of the nodes on the twelve cube edges.
// The mesh holds only that O(Ne) cube-edge index and resolves neighbours on
// demand, which is what lets the million-element regime (Ne >= 384) stream
// the dual graph without ever holding a second copy of the adjacency.
package mesh

import (
	"fmt"
	"slices"
)

// NumFaces is the number of faces of the cube.
const NumFaces = 6

// Face identifies one of the six cube faces.
type Face int

// Face labels. The lateral faces 0..3 form an equatorial ring
// (+X, +Y, -X, -Y) and faces 4 and 5 are the poles (+Z, -Z).
const (
	FacePX Face = iota // +X
	FacePY             // +Y
	FaceNX             // -X
	FaceNY             // -Y
	FacePZ             // +Z (north)
	FaceNZ             // -Z (south)
)

func (f Face) String() string {
	switch f {
	case FacePX:
		return "+X"
	case FacePY:
		return "+Y"
	case FaceNX:
		return "-X"
	case FaceNY:
		return "-Y"
	case FacePZ:
		return "+Z"
	case FaceNZ:
		return "-Z"
	}
	return fmt.Sprintf("Face(%d)", int(f))
}

// ElemID is the global identifier of a spectral element, in [0, K).
type ElemID int

// Elem locates an element on the cubed-sphere: face f, column i and row j,
// both in [0, Ne).
type Elem struct {
	Face Face
	I, J int
}

// Mesh is a cubed-sphere mesh with Ne x Ne elements per face.
// The zero value is not usable; construct with New.
type Mesh struct {
	ne int

	// cubeEdgeNodes lists, for every corner node lying on one of the twelve
	// cube edges (at least two coordinates at +-ne), the up to four elements
	// touching it, -1 padded and indexed by cubeEdgeSlot. It has O(Ne)
	// entries and is the only lookup structure cross-face adjacency needs:
	// two elements on different faces can only share nodes on the cube edge
	// where their faces meet.
	cubeEdgeNodes [][4]ElemID
}

// New constructs the cubed-sphere mesh with ne x ne elements per face. Only
// the O(Ne) cube-edge node index is built; adjacency queries are answered
// analytically per call. ne must be >= 1.
func New(ne int) (*Mesh, error) {
	if ne < 1 {
		return nil, fmt.Errorf("mesh: Ne must be >= 1, got %d", ne)
	}
	m := &Mesh{ne: ne}
	m.buildCubeEdgeIndex()
	return m, nil
}

// NewAuto is New.
//
// Deprecated: kept only because the frozen benchmark module calls it.
func NewAuto(ne int) (*Mesh, error) { return New(ne) }

// Ne returns the number of elements along one edge of a cube face.
func (m *Mesh) Ne() int { return m.ne }

// NumElems returns the total element count K = 6*Ne*Ne.
func (m *Mesh) NumElems() int { return NumFaces * m.ne * m.ne }

// ID returns the global element id for (face, i, j).
func (m *Mesh) ID(f Face, i, j int) ElemID {
	return ElemID(int(f)*m.ne*m.ne + j*m.ne + i)
}

// Elem returns the (face, i, j) location of a global element id.
func (m *Mesh) Elem(id ElemID) Elem {
	n2 := m.ne * m.ne
	f := int(id) / n2
	r := int(id) % n2
	return Elem{Face: Face(f), I: r % m.ne, J: r / m.ne}
}

// EdgeNeighbors returns the elements sharing an edge with e, sorted by id.
func (m *Mesh) EdgeNeighbors(e ElemID) []ElemID {
	en, _ := m.NeighborsInto(e, nil, nil)
	return en
}

// CornerNeighbors returns the elements sharing exactly one corner point with
// e, sorted by id.
func (m *Mesh) CornerNeighbors(e ElemID) []ElemID {
	_, cn := m.NeighborsInto(e, nil, nil)
	return cn
}

// NeighborsInto appends the edge and corner neighbours of e, each sorted by
// id, to edgeDst and cornerDst and returns the extended slices. Passing
// reusable buffers (sliced to length 0) makes repeated queries allocation
// free in steady state, which is what the streaming CSR build relies on.
// It is safe for concurrent use: the mesh is never mutated after
// construction.
func (m *Mesh) NeighborsInto(e ElemID, edgeDst, cornerDst []ElemID) (edge, corner []ElemID) {
	ne := m.ne
	n2 := ne * ne
	id := int(e)
	f := id / n2
	r := id % n2
	i, j := r%ne, r/ne
	if i > 0 && i < ne-1 && j > 0 && j < ne-1 {
		// Interior element: all eight neighbours exist on the same face and
		// follow from index arithmetic; emitting rows (j-1, j, j+1) in order
		// keeps both lists ascending.
		below, above := id-ne, id+ne
		edgeDst = append(edgeDst, ElemID(below), ElemID(id-1), ElemID(id+1), ElemID(above))
		cornerDst = append(cornerDst, ElemID(below-1), ElemID(below+1), ElemID(above-1), ElemID(above+1))
		return edgeDst, cornerDst
	}
	return m.appendBoundaryNeighbors(Face(f), i, j, edgeDst, cornerDst)
}

// Neighbors returns the union of edge and corner neighbours of e, sorted by
// id. This is the adjacency the paper uses to build the partitioning graph
// ("neighboring elements that share a boundary or corner point").
func (m *Mesh) Neighbors(e ElemID) []ElemID {
	en, cn := m.NeighborsInto(e, nil, nil)
	return mergeSorted(make([]ElemID, 0, len(en)+len(cn)), en, cn)
}

// NodeKey identifies a corner node of an element exactly: the node's
// position on the cube surface scaled so all coordinates are integers.
// Corner nodes shared between elements -- including across cube edges and at
// cube corners -- compare equal, which lets clients (e.g. the spectral
// element assembly in package seam) identify shared degrees of freedom
// without any floating-point tolerance.
type NodeKey struct{ X, Y, Z int }

// CornerNodes returns the exact keys of the four corner nodes of element e
// in counter-clockwise order: (i,j), (i+1,j), (i+1,j+1), (i,j+1) -- i.e.
// bottom-left, bottom-right, top-right, top-left in local face coordinates.
func (m *Mesh) CornerNodes(e ElemID) [4]NodeKey {
	el := m.Elem(e)
	mk := func(i, j int) NodeKey {
		k := m.cornerNode(el.Face, i, j)
		return NodeKey{k.x, k.y, k.z}
	}
	return [4]NodeKey{
		mk(el.I, el.J),
		mk(el.I+1, el.J),
		mk(el.I+1, el.J+1),
		mk(el.I, el.J+1),
	}
}

// nodeKey identifies a corner node of an element exactly. Corner nodes live
// on the surface of the cube [-ne, ne]^3 scaled by ne so that all coordinates
// are integers: a node on face f at local grid corner (i, j) has cube
// coordinates c*ne + u*(2i-ne) + v*(2j-ne) where (c, u, v) is the integer
// frame of the face. Nodes shared between faces (on cube edges and corners)
// get identical keys, which is what makes cross-face adjacency exact.
type nodeKey struct{ x, y, z int }

// faceFrame is the integer coordinate frame of a cube face: center axis c,
// and in-face axes u (local i direction) and v (local j direction).
type faceFrame struct{ c, u, v [3]int }

// faceFrames defines the orientation of the local (i, j) grid on every face.
// The lateral faces share the +Z direction as "up" (v axis), so j increases
// towards the north pole on all four of them; the polar faces are oriented so
// the mesh is right-handed when viewed from outside the sphere.
var faceFrames = [NumFaces]faceFrame{
	FacePX: {c: [3]int{1, 0, 0}, u: [3]int{0, 1, 0}, v: [3]int{0, 0, 1}},
	FacePY: {c: [3]int{0, 1, 0}, u: [3]int{-1, 0, 0}, v: [3]int{0, 0, 1}},
	FaceNX: {c: [3]int{-1, 0, 0}, u: [3]int{0, -1, 0}, v: [3]int{0, 0, 1}},
	FaceNY: {c: [3]int{0, -1, 0}, u: [3]int{1, 0, 0}, v: [3]int{0, 0, 1}},
	FacePZ: {c: [3]int{0, 0, 1}, u: [3]int{0, 1, 0}, v: [3]int{-1, 0, 0}},
	FaceNZ: {c: [3]int{0, 0, -1}, u: [3]int{0, 1, 0}, v: [3]int{1, 0, 0}},
}

// cornerNode returns the integer key of the corner node at grid corner
// (i, j) of face f, where i, j range over [0, ne] (element (i,j) has corners
// (i,j), (i+1,j), (i,j+1), (i+1,j+1)).
func (m *Mesh) cornerNode(f Face, i, j int) nodeKey {
	fr := faceFrames[f]
	a := 2*i - m.ne // in [-ne, ne]
	b := 2*j - m.ne
	return nodeKey{
		x: fr.c[0]*m.ne + fr.u[0]*a + fr.v[0]*b,
		y: fr.c[1]*m.ne + fr.u[1]*a + fr.v[1]*b,
		z: fr.c[2]*m.ne + fr.u[2]*a + fr.v[2]*b,
	}
}

// cubeEdgeSlot returns the index in cubeEdgeNodes of a corner node lying on
// one of the twelve cube edges, or -1 for any other node: at least two of its
// coordinates must sit on the cube surface at +-ne. (Exactly one coordinate
// at +-ne means a node interior to a face, which is only ever shared between
// elements of that face.) A cube edge is named by the axis it runs along and
// the signs of the other two coordinates, a node on it by its position along
// that axis; the eight cube corners count as end points of the x-axis edges.
func (m *Mesh) cubeEdgeSlot(k nodeKey) int {
	c := [3]int{k.x, k.y, k.z}
	along, nfree := 0, 0
	for a := 2; a >= 0; a-- {
		if c[a] != m.ne && c[a] != -m.ne {
			along = a
			nfree++
		}
	}
	if nfree > 1 {
		return -1
	}
	edge := along
	for a := 0; a < 3; a++ {
		if a != along {
			edge *= 2
			if c[a] > 0 {
				edge++
			}
		}
	}
	return edge*(m.ne+1) + (c[along]+m.ne)/2
}

// buildCubeEdgeIndex records for every corner node on a cube edge the
// elements touching it (at most four: two on each face along an edge, one
// per face at a cube corner). Only boundary-ring elements (i or j in
// {0, ne-1}) can touch such a node, so the index is built from the O(Ne)
// perimeter of each face, in one allocation.
func (m *Mesh) buildCubeEdgeIndex() {
	ne := m.ne
	m.cubeEdgeNodes = make([][4]ElemID, 12*(ne+1))
	for i := range m.cubeEdgeNodes {
		m.cubeEdgeNodes[i] = [4]ElemID{-1, -1, -1, -1}
	}
	visit := func(f Face, i, j int) {
		id := m.ID(f, i, j)
		for _, c := range [4][2]int{{i, j}, {i + 1, j}, {i, j + 1}, {i + 1, j + 1}} {
			if slot := m.cubeEdgeSlot(m.cornerNode(f, c[0], c[1])); slot >= 0 {
				elems := &m.cubeEdgeNodes[slot]
				elems[slices.Index(elems[:], -1)] = id
			}
		}
	}
	for f := Face(0); f < NumFaces; f++ {
		for j := 0; j < ne; j++ {
			if j == 0 || j == ne-1 {
				for i := 0; i < ne; i++ {
					visit(f, i, j)
				}
			} else {
				visit(f, 0, j)
				if ne > 1 {
					visit(f, ne-1, j)
				}
			}
		}
	}
}

// Relative offsets of same-face neighbours in ascending element-id order
// (sorted by dj, then di): ids differ by dj*ne + di.
var (
	sameFaceEdgeOffsets   = [4][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}
	sameFaceCornerOffsets = [4][2]int{{-1, -1}, {1, -1}, {-1, 1}, {1, 1}}
)

// appendBoundaryNeighbors handles elements on the boundary ring of a face:
// same-face neighbours are still arithmetic, and cross-face neighbours are
// found through the cube-edge node index by counting shared nodes (two or
// more shared nodes make an edge neighbour, exactly one a corner neighbour).
func (m *Mesh) appendBoundaryNeighbors(f Face, i, j int, edgeDst, cornerDst []ElemID) ([]ElemID, []ElemID) {
	ne := m.ne
	base := int(f) * ne * ne

	// Cross-face candidates with shared-node counts. An element touches at
	// most six elements of other faces (two flanking pairs across a cube
	// edge plus two around a cube corner), so fixed-size scratch suffices.
	var cand [8]ElemID
	var cnt [8]int8
	ncand := 0
	for _, c := range [4][2]int{{i, j}, {i + 1, j}, {i, j + 1}, {i + 1, j + 1}} {
		slot := m.cubeEdgeSlot(m.cornerNode(f, c[0], c[1]))
		if slot < 0 {
			continue
		}
		for _, o := range m.cubeEdgeNodes[slot] {
			if o < 0 {
				break
			}
			if int(o) >= base && int(o) < base+ne*ne {
				continue // same-face neighbours are handled arithmetically
			}
			found := false
			for t := 0; t < ncand; t++ {
				if cand[t] == o {
					cnt[t]++
					found = true
					break
				}
			}
			if !found {
				cand[ncand] = o
				cnt[ncand] = 1
				ncand++
			}
		}
	}
	// Split candidates by shared-node count and sort each group (insertion
	// sort; at most six entries).
	var xeBuf, xcBuf [8]ElemID
	xe, xc := xeBuf[:0], xcBuf[:0]
	for t := 0; t < ncand; t++ {
		if cnt[t] >= 2 {
			xe = insertSortedElem(xe, cand[t])
		} else {
			xc = insertSortedElem(xc, cand[t])
		}
	}

	// Same-face neighbours in ascending order.
	var feBuf, fcBuf [4]ElemID
	fe, fc := feBuf[:0], fcBuf[:0]
	for _, d := range sameFaceEdgeOffsets {
		if ii, jj := i+d[0], j+d[1]; ii >= 0 && ii < ne && jj >= 0 && jj < ne {
			fe = append(fe, ElemID(base+jj*ne+ii))
		}
	}
	for _, d := range sameFaceCornerOffsets {
		if ii, jj := i+d[0], j+d[1]; ii >= 0 && ii < ne && jj >= 0 && jj < ne {
			fc = append(fc, ElemID(base+jj*ne+ii))
		}
	}

	edgeDst = mergeSorted(edgeDst, fe, xe)
	cornerDst = mergeSorted(cornerDst, fc, xc)
	return edgeDst, cornerDst
}

// insertSortedElem inserts v into the ascending slice s (backed by a
// fixed-size array with spare capacity).
func insertSortedElem(s []ElemID, v ElemID) []ElemID {
	p := len(s)
	s = append(s, v)
	for p > 0 && s[p-1] > v {
		s[p] = s[p-1]
		p--
	}
	s[p] = v
	return s
}

// mergeSorted appends the merge of two ascending slices to dst.
func mergeSorted(dst, a, b []ElemID) []ElemID {
	ia, ib := 0, 0
	for ia < len(a) && ib < len(b) {
		if a[ia] <= b[ib] {
			dst = append(dst, a[ia])
			ia++
		} else {
			dst = append(dst, b[ib])
			ib++
		}
	}
	dst = append(dst, a[ia:]...)
	return append(dst, b[ib:]...)
}
