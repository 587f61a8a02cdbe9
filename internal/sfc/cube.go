package sfc

import (
	"fmt"
	"slices"

	"sfccube/internal/mesh"
	"sfccube/internal/par"
)

// defaultFacePath is the preferred order in which the curve visits the six
// cube faces; consecutive faces share a cube edge. The Hilbert/Peano family
// always chains continuously along this path. Base orderings with diagonal
// endpoints are rigid (each face's orientation forces the next), so for them
// the constructor searches over every Hamiltonian path of the face adjacency
// graph (the octahedron).
var defaultFacePath = [mesh.NumFaces]mesh.Face{
	mesh.FaceNY, mesh.FacePZ, mesh.FacePY, mesh.FacePX, mesh.FaceNZ, mesh.FaceNX,
}

// facesAdjacent reports whether two cube faces share an edge: all pairs
// except a face with itself or its opposite. The lateral ring 0..3 puts
// opposites two apart; the poles 4 and 5 oppose each other.
func facesAdjacent(a, b mesh.Face) bool {
	if a == b {
		return false
	}
	if a < mesh.FacePZ {
		return b != (a+2)%4
	}
	return b < mesh.FacePZ
}

// faceHamiltonianPaths is every visiting order of the six faces in which
// consecutive faces are adjacent, the default path first. Immutable.
var faceHamiltonianPaths = func() [][mesh.NumFaces]mesh.Face {
	paths := [][mesh.NumFaces]mesh.Face{defaultFacePath}
	var cur [mesh.NumFaces]mesh.Face
	used := [mesh.NumFaces]bool{}
	var rec func(depth int)
	rec = func(depth int) {
		if depth == mesh.NumFaces {
			if cur != defaultFacePath {
				paths = append(paths, cur)
			}
			return
		}
		for f := mesh.Face(0); f < mesh.NumFaces; f++ {
			if used[f] {
				continue
			}
			if depth > 0 && !facesAdjacent(cur[depth-1], f) {
				continue
			}
			used[f] = true
			cur[depth] = f
			rec(depth + 1)
			used[f] = false
		}
	}
	rec(0)
	return paths
}()

// CubeCurve is a single continuous space-filling curve traversing every
// element of a cubed-sphere mesh (paper Figure 6): the per-face curves are
// oriented so that the exit element of each face is edge-adjacent, across the
// shared cube edge, to the entry element of the next face. Splitting the
// curve into equal contiguous segments yields the SFC partition. The visit
// order is the only per-element storage; its inverse (ElemXF) is computed.
type CubeCurve struct {
	m     *mesh.Mesh
	sched Schedule // per-face refinement schedule; nil with a baseline ordering
	base  *Curve   // the baseline ordering being chained; nil with a schedule
	path  [mesh.NumFaces]mesh.Face
	xf    [mesh.NumFaces]XF // orientation of the per-face curve on each face

	order []int32 // rank -> element; K = 6·Ne² < 2^31 up to Ne ≈ 18,900
}

// NewCubeCurve builds the continuous cubed-sphere curve for mesh m using the
// given refinement schedule. The schedule's side must equal m.Ne(). The
// per-face orientations are found by a backtracking search over the dihedral
// group, and the recursion then writes each face's element ids straight into
// its slot of the visit order; an error is returned only for a schedule/mesh
// size mismatch (a continuous assignment always exists because corner
// elements of adjacent faces that meet at a cube-edge endpoint share a full
// element edge).
func NewCubeCurve(m *mesh.Mesh, sched Schedule) (*CubeCurve, error) {
	if sched.Side() != m.Ne() {
		return nil, fmt.Errorf("sfc: schedule %v covers a %dx%d face but mesh has Ne=%d",
			sched, sched.Side(), sched.Side(), m.Ne())
	}
	// At Ne=1 every face is a single cell, so the orientation search is
	// vacuous (entry == exit under any transform) and would pick arbitrary
	// face orientations. Those orientations are observable through ElemXF,
	// whose contract is that refining the schedule continues the global
	// curve; solve them against the one-level Hilbert refinement instead,
	// where the motif endpoints are distinguishable, so the Ne=1 curve agrees
	// with what its own refinement chooses.
	solve := m
	if m.Ne() == 1 {
		var err error
		if solve, err = mesh.New(2); err != nil {
			return nil, err
		}
	}
	// Every curve of the family enters a face at (0,0) and exits at (P-1,0).
	cc := &CubeCurve{m: m, sched: sched}
	return cc.chain(solve, Point{}, Point{X: solve.Ne() - 1})
}

// NewCubeCurveFromBase chains an arbitrary per-face ordering over the six
// faces. The base ordering need not be continuous (e.g. Morton order); the
// orientation search still aligns each face's exit cell with the next
// face's entry cell, so a continuous base yields a globally continuous
// curve and a discontinuous base degrades gracefully. Used for the baseline
// orderings (GenerateSerpentine, GenerateMorton).
func NewCubeCurveFromBase(m *mesh.Mesh, base *Curve) (*CubeCurve, error) {
	if base.Side() != m.Ne() {
		return nil, fmt.Errorf("sfc: base ordering covers a %dx%d face but mesh has Ne=%d",
			base.Side(), base.Side(), m.Ne())
	}
	cc := &CubeCurve{m: m, base: base}
	entry, exit := base.Endpoints()
	return cc.chain(m, entry, exit)
}

// chain orients the six per-face curves, whose entry and exit cells on mesh
// m are given, and writes the global visit order.
func (cc *CubeCurve) chain(m *mesh.Mesh, entry, exit Point) (*CubeCurve, error) {
	if !cc.solveOrientations(m, entry, exit) {
		// Cannot happen for a cube (see NewCubeCurve), but fail loudly
		// rather than return a broken curve.
		return nil, fmt.Errorf("sfc: no face orientation found for Ne=%d", m.Ne())
	}
	cc.build()
	return cc, nil
}

// solveOrientations assigns one XF per face (in face-path order) so that
// each face's exit element connects to the next face's entry element on m,
// minimising the number of broken transitions. It first demands full
// edge-adjacency (always solvable for the Hilbert/Peano family: their entry
// and exit lie on the same domain edge). For base orderings whose endpoints
// are diagonal corners (Morton, serpentine with odd Ne) it then allows
// corner adjacency, and finally an increasing budget of disconnected
// transitions -- the partition stays valid, only segment compactness
// degrades. Note that for diagonal endpoints at least one break is
// unavoidable: a break-free chain would be an Eulerian path in K4 (faces are
// the edges between same-parity cube corners, every corner has odd degree
// 3), which does not exist.
func (cc *CubeCurve) solveOrientations(m *mesh.Mesh, entry, exit Point) bool {
	edgeAdj := func(a, b mesh.ElemID) bool { return isEdgeNeighbor(m, a, b) }
	connected := func(a, b mesh.ElemID) bool {
		return isEdgeNeighbor(m, a, b) || isCornerNeighbor(m, a, b)
	}
	try := func(accept func(a, b mesh.ElemID) bool, breaks int) bool {
		for _, path := range faceHamiltonianPaths {
			var rec func(step, budget int, prevExit mesh.ElemID) bool
			rec = func(step, budget int, prevExit mesh.ElemID) bool {
				if step == mesh.NumFaces {
					return true
				}
				f := path[step]
				for _, t := range AllXF {
					in, out := t.Apply(entry, m.Ne()), t.Apply(exit, m.Ne())
					b := budget
					if step > 0 && !accept(prevExit, m.ID(f, in.X, in.Y)) {
						if b == 0 {
							continue
						}
						b--
					}
					cc.xf[f] = t
					if rec(step+1, b, m.ID(f, out.X, out.Y)) {
						return true
					}
				}
				return false
			}
			if rec(0, breaks, -1) {
				cc.path = path
				return true
			}
		}
		return false
	}
	if try(edgeAdj, 0) {
		return true
	}
	for breaks := 0; breaks <= mesh.NumFaces-1; breaks++ {
		if try(connected, breaks) {
			return true
		}
	}
	return false
}

// isEdgeNeighbor and isCornerNeighbor resolve a's neighbours into stack
// buffers, so the orientation search and the continuity checks do not
// allocate.
func isEdgeNeighbor(m *mesh.Mesh, a, b mesh.ElemID) bool {
	var eb, cb [4]mesh.ElemID
	edge, _ := m.NeighborsInto(a, eb[:0], cb[:0])
	return slices.Contains(edge, b)
}

func isCornerNeighbor(m *mesh.Mesh, a, b mesh.ElemID) bool {
	var eb, cb [4]mesh.ElemID
	_, corner := m.NeighborsInto(a, eb[:0], cb[:0])
	return slices.Contains(corner, b)
}

// build materialises the global visit order. The six faces occupy fixed
// rank ranges [fi*P^2, (fi+1)*P^2) and fill in parallel over disjoint
// writes: a schedule's recursion runs with the face's orientation as its
// root and writes element ids directly (mesh.ID is row-major within a face),
// a baseline ordering is mapped cell by cell. Every entry depends only on its
// index, making the result byte-identical at any GOMAXPROCS.
func (cc *CubeCurve) build() {
	ne := cc.m.Ne()
	perFace := ne * ne
	cc.order = make([]int32, cc.m.NumElems())
	par.ForBlocks(len(cc.path), func(fi int) {
		f := cc.path[fi]
		t := cc.xf[f]
		out := cc.order[fi*perFace : (fi+1)*perFace]
		if cc.base == nil {
			fill(out, cc.sched, ne, t, 0, 0, ne, int32(cc.m.ID(f, 0, 0)))
			return
		}
		for i, p := range cc.base.Order() {
			q := t.Apply(p, ne)
			out[i] = int32(cc.m.ID(f, q.X, q.Y))
		}
	})
}

// Schedule returns the refinement schedule used per face, or nil when the
// curve was built from a baseline ordering via NewCubeCurveFromBase.
func (cc *CubeCurve) Schedule() Schedule { return cc.sched }

// Len returns the number of elements on the curve (6 * Ne^2).
func (cc *CubeCurve) Len() int { return len(cc.order) }

// At returns the element visited at the given curve rank.
func (cc *CubeCurve) At(rank int) mesh.ElemID { return mesh.ElemID(cc.order[rank]) }

// Order returns the global visit order, rank to element id, 4 bytes an
// element; the returned slice is owned by the curve and must not be modified.
func (cc *CubeCurve) Order() []int32 { return cc.order }

// FacePath returns the order in which the curve traverses the cube faces.
func (cc *CubeCurve) FacePath() [mesh.NumFaces]mesh.Face { return cc.path }

// ElemXF inverts the curve at element e: it returns e's curve rank and the
// accumulated curve orientation there, the transform under which refinement
// of e (appending levels to the schedule) would continue the global curve.
// Both come from one O(len(schedule)) descent from the root of e's face,
// entered with the face's orientation: because dihedral transforms
// distribute over block decomposition, that is exactly the transform the
// refined global curve would accumulate at e, and the face's position on the
// path supplies the rank's offset. Base orderings built from serpentine or
// Morton curves are not motif recursions: their rank is the base's closed
// form at the cell the face orientation maps to e, and their orientation is
// the face's alone.
func (cc *CubeCurve) ElemXF(e mesh.ElemID) (rank int, t XF) {
	el := cc.m.Elem(e)
	ne := cc.m.Ne()
	rank = slices.Index(cc.path[:], el.Face) * ne * ne
	t = cc.xf[el.Face]
	q := Point{X: el.I, Y: el.J}
	if cc.base != nil {
		q = t.Inverse().Apply(q, ne)
		return rank + cc.base.Rank(q.X, q.Y), t
	}
	r, leaf := cc.sched.descend(t, q)
	return rank + r, leaf
}

// IsContinuous reports whether consecutive elements on the global curve are
// edge-adjacent on the cubed-sphere (including across cube edges).
func (cc *CubeCurve) IsContinuous() bool {
	for i := 1; i < len(cc.order); i++ {
		if !isEdgeNeighbor(cc.m, cc.At(i-1), cc.At(i)) {
			return false
		}
	}
	return true
}
