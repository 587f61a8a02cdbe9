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
// follow from index arithmetic alone, and an element on the boundary ring of
// a face steps across the cube edge through a fixed 24-entry gluing table
// (for each side of each face: the face across, its glued side, and whether
// positions run reversed), derived once from the face frames. The mesh stores
// nothing but Ne and resolves neighbours on demand, which is what lets the
// million-element regime (Ne >= 384) stream the dual graph without ever
// holding a second copy of the adjacency.
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
type Mesh struct{ ne int }

// New constructs the cubed-sphere mesh with ne x ne elements per face.
// Nothing is built: adjacency queries are answered analytically per call.
// ne must be >= 1.
func New(ne int) (*Mesh, error) {
	if ne < 1 {
		return nil, fmt.Errorf("mesh: Ne must be >= 1, got %d", ne)
	}
	return &Mesh{ne: ne}, nil
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
// It is safe for concurrent use: the mesh is immutable.
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
	all, cn := m.NeighborsInto(e, nil, nil)
	all = append(all, cn...)
	slices.Sort(all)
	return all
}

// NodeKey identifies a lattice point of the cube surface exactly: its
// position on the cube [-n, n]^3, scaled so all coordinates are integers.
// Points shared between elements -- including across cube edges and at cube
// corners -- compare equal, which lets clients (e.g. the spectral element
// assembly in package seam) identify shared degrees of freedom without any
// floating-point tolerance.
type NodeKey struct{ X, Y, Z int }

// PointKey returns the key of lattice point (a, b), a and b in [0, q], of
// element e when every element edge is cut into q intervals: the CubeKey of
// that point on the cube of Ne*q intervals per face edge. Every element
// touching the point gets the same key for it. With q = 1 the points (0,0),
// (1,0), (1,1), (0,1) are the element's four corner nodes.
func (m *Mesh) PointKey(e ElemID, q, a, b int) NodeKey {
	el := m.Elem(e)
	n := m.ne * q
	return CubeKey(el.Face, n, 2*(el.I*q+a)-n, 2*(el.J*q+b)-n)
}

// faceFrame is the integer coordinate frame of a cube face: center axis c,
// and in-face axes u (local i direction) and v (local j direction).
type faceFrame struct{ c, u, v [3]int }

// faceFrames defines the orientation of the local (i, j) grid on every face.
// The lateral faces share the +Z direction as "up" (v axis), so j increases
// towards the north pole on all four of them; the polar faces are oriented so
// the mesh is right-handed when viewed from outside the sphere. Everything
// the repository knows about how the cube is put together -- node keys, the
// gluing table below, the floating-point geometry -- is read off this table.
var faceFrames = [NumFaces]faceFrame{
	FacePX: {c: [3]int{1, 0, 0}, u: [3]int{0, 1, 0}, v: [3]int{0, 0, 1}},
	FacePY: {c: [3]int{0, 1, 0}, u: [3]int{-1, 0, 0}, v: [3]int{0, 0, 1}},
	FaceNX: {c: [3]int{-1, 0, 0}, u: [3]int{0, -1, 0}, v: [3]int{0, 0, 1}},
	FaceNY: {c: [3]int{0, -1, 0}, u: [3]int{1, 0, 0}, v: [3]int{0, 0, 1}},
	FacePZ: {c: [3]int{0, 0, 1}, u: [3]int{0, 1, 0}, v: [3]int{-1, 0, 0}},
	FaceNZ: {c: [3]int{0, 0, -1}, u: [3]int{0, 1, 0}, v: [3]int{1, 0, 0}},
}

// CubeKey returns the point c*n + u*a + v*b of the cube [-n, n]^3, where
// (c, u, v) is the frame of face f and a, b in [-n, n] are local face
// coordinates. Points shared between faces (on cube edges and corners) get
// identical keys from either side, which is what makes cross-face adjacency
// exact at any resolution n.
func CubeKey(f Face, n, a, b int) NodeKey {
	fr := &faceFrames[f]
	return NodeKey{
		X: fr.c[0]*n + fr.u[0]*a + fr.v[0]*b,
		Y: fr.c[1]*n + fr.u[1]*a + fr.v[1]*b,
		Z: fr.c[2]*n + fr.u[2]*a + fr.v[2]*b,
	}
}

// The four sides of a face, numbered 2*axis + end: the sides where i is fixed
// (at 0, at ne-1) come first, then those where j is. A position along a side
// is the coordinate that is free on it.
const (
	sideILo = iota
	sideIHi
	sideJLo
	sideJHi
)

// seam says what lies across one side of a face: the face there, which of
// its sides is the glued one, and whether positions along the shared cube
// edge run in opposite directions on the two faces.
type seam struct {
	face Face
	side int
	rev  bool
}

// glue is the gluing of the six faces (the paper's Figure 6): glue[f][s] is
// the seam across side s of face f. It is derived from faceFrames by matching
// the end-node keys of every side on the unit cube, so it cannot disagree
// with the keys PointKey hands out.
var glue = func() (g [NumFaces][4]seam) {
	// End nodes of side s in order of increasing position.
	ends := func(f Face, s int) (lo, hi NodeKey) {
		fixed := 2*(s%2) - 1
		if s < sideJLo {
			return CubeKey(f, 1, fixed, -1), CubeKey(f, 1, fixed, 1)
		}
		return CubeKey(f, 1, -1, fixed), CubeKey(f, 1, 1, fixed)
	}
	for f := Face(0); f < NumFaces; f++ {
		for s := 0; s < 4; s++ {
			lo, hi := ends(f, s)
			for o := Face(0); o < NumFaces; o++ {
				for os := 0; os < 4; os++ {
					olo, ohi := ends(o, os)
					if o != f && (olo == lo && ohi == hi || olo == hi && ohi == lo) {
						g[f][s] = seam{face: o, side: os, rev: olo == hi}
					}
				}
			}
		}
	}
	return g
}()

// appendBoundaryNeighbors handles elements on the boundary ring of a face by
// walking the eight (di, dj) offsets: an offset that stays in range is
// same-face arithmetic, one that leaves by one side lands on the element
// across that seam at the same position, and one that leaves by two sides
// lands nowhere, because only three elements meet at a cube corner. Axis
// offsets are edge neighbours, diagonal ones corner neighbours.
func (m *Mesh) appendBoundaryNeighbors(f Face, i, j int, edgeDst, cornerDst []ElemID) ([]ElemID, []ElemID) {
	ne := m.ne
	edge0, corner0 := len(edgeDst), len(cornerDst)
	for dj := -1; dj <= 1; dj++ {
		for di := -1; di <= 1; di++ {
			ii, jj := i+di, j+dj
			offI, offJ := ii < 0 || ii >= ne, jj < 0 || jj >= ne
			var id ElemID
			switch {
			case offI && offJ, di == 0 && dj == 0:
				continue
			case offI:
				id = m.across(f, sideILo+(di+1)/2, jj)
			case offJ:
				id = m.across(f, sideJLo+(dj+1)/2, ii)
			default:
				id = m.ID(f, ii, jj)
			}
			if di == 0 || dj == 0 {
				edgeDst = insertSorted(edgeDst, edge0, id)
			} else {
				cornerDst = insertSorted(cornerDst, corner0, id)
			}
		}
	}
	return edgeDst, cornerDst
}

// across returns the element on the far side of side s of face f at position
// p along it.
func (m *Mesh) across(f Face, s, p int) ElemID {
	first, step := m.SeamStrip(f, s)
	return first + ElemID(p*step)
}

// SeamStrip returns the elements across side s of face f, the seam's strip
// on the glued face: the one at position p along the side is first + p*step.
// Sides are numbered 0 (i = 0), 1 (i = Ne-1), 2 (j = 0) and 3 (j = Ne-1), and
// a position is the coordinate that is free on the side. The four strips of
// a face are its one-element halo; the cube corners are in none of them.
func (m *Mesh) SeamStrip(f Face, s int) (first ElemID, step int) {
	g := glue[f][s]
	fixed := (g.side % 2) * (m.ne - 1)
	if g.side < sideJLo {
		first, step = m.ID(g.face, fixed, 0), m.ne
	} else {
		first, step = m.ID(g.face, 0, fixed), 1
	}
	if g.rev {
		first, step = first+ElemID((m.ne-1)*step), -step
	}
	return first, step
}

// insertSorted appends v to s, keeping s[lo:] ascending.
func insertSorted(s []ElemID, lo int, v ElemID) []ElemID {
	p := len(s)
	s = append(s, v)
	for p > lo && s[p-1] > v {
		s[p] = s[p-1]
		p--
	}
	s[p] = v
	return s
}
