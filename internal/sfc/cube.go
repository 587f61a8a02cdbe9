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
// curve into equal contiguous segments yields the SFC partition.
type CubeCurve struct {
	m     *mesh.Mesh
	base  *Curve   // the per-face ordering being chained
	sched Schedule // nil when built from a baseline ordering
	path  [mesh.NumFaces]mesh.Face
	xf    [mesh.NumFaces]XF // orientation applied to the base curve per face

	order []mesh.ElemID // rank -> element
	rank  []int         // element -> rank
}

// NewCubeCurve builds the continuous cubed-sphere curve for mesh m using the
// given refinement schedule. The schedule's side must equal m.Ne(). The
// per-face orientations are found by a backtracking search over the dihedral
// group and the result is verified to be continuous; an error is returned
// only for a schedule/mesh size mismatch (a continuous assignment always
// exists because corner elements of adjacent faces that meet at a cube-edge
// endpoint share a full element edge).
func NewCubeCurve(m *mesh.Mesh, sched Schedule) (*CubeCurve, error) {
	if sched.Side() != m.Ne() {
		return nil, fmt.Errorf("sfc: schedule %v covers a %dx%d face but mesh has Ne=%d",
			sched, sched.Side(), sched.Side(), m.Ne())
	}
	cc, err := NewCubeCurveFromBase(m, Generate(sched))
	if err != nil {
		return nil, err
	}
	cc.sched = sched
	// At Ne=1 every face is a single cell, so the orientation search above is
	// vacuous (entry == exit under any transform) and would pick arbitrary
	// face orientations. Those orientations are observable through ElemXF,
	// whose contract is that refining the schedule continues the global
	// curve; solve them against the one-level refinement instead, where the
	// motif endpoints are distinguishable, so the Ne=1 curve agrees with
	// what its own refinement chooses.
	if m.Ne() == 1 {
		m2, err := mesh.New(2)
		if err != nil {
			return nil, err
		}
		refined := append(append(Schedule{}, sched...), Hilbert)
		cc2, err := NewCubeCurveFromBase(m2, Generate(refined))
		if err != nil {
			return nil, err
		}
		cc.path = cc2.path
		cc.xf = cc2.xf
		cc.build(cc.base)
	}
	return cc, nil
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
	if !cc.solveOrientations(base) {
		// Cannot happen for a cube (see doc comment), but fail loudly
		// rather than return a broken curve.
		return nil, fmt.Errorf("sfc: no face orientation found for Ne=%d", m.Ne())
	}
	cc.build(base)
	return cc, nil
}

// entryExit returns the entry and exit cells of the base curve on a face
// once orientation t is applied.
func entryExit(base *Curve, t XF) (entry, exit Point) {
	e0, e1 := base.Endpoints()
	return t.Apply(e0, base.Side()), t.Apply(e1, base.Side())
}

// solveOrientations assigns one XF per face (in facePath order) so that each
// face's exit element connects to the next face's entry element. It prefers
// edge adjacency (a fully continuous global curve, always achievable for the
// Hilbert/Peano family whose endpoints lie on one edge); for base orderings
// with diagonal endpoints (serpentine with odd Ne, Morton) it falls back to
// corner adjacency, and as a last resort to no constraint at all -- the
// partition stays valid, only segment compactness degrades.
// solveOrientations searches for face orientations minimising the number of
// broken transitions. It first demands full edge-adjacency (always solvable
// for the Hilbert/Peano family: their entry and exit lie on the same domain
// edge). For base orderings whose endpoints are diagonal corners (Morton,
// serpentine with odd Ne) it then allows corner adjacency, and finally an
// increasing budget of disconnected transitions. Note that for diagonal
// endpoints at least one break is unavoidable: a break-free chain would be
// an Eulerian path in K4 (faces are the edges between same-parity cube
// corners, every corner has odd degree 3), which does not exist.
func (cc *CubeCurve) solveOrientations(base *Curve) bool {
	edgeAdj := func(a, b mesh.ElemID) bool { return isEdgeNeighbor(cc.m, a, b) }
	connected := func(a, b mesh.ElemID) bool {
		return isEdgeNeighbor(cc.m, a, b) || isCornerNeighbor(cc.m, a, b)
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
					entry, exit := entryExit(base, t)
					entryID := cc.m.ID(f, entry.X, entry.Y)
					b := budget
					if step > 0 && !accept(prevExit, entryID) {
						if b == 0 {
							continue
						}
						b--
					}
					cc.xf[f] = t
					if rec(step+1, b, cc.m.ID(f, exit.X, exit.Y)) {
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
// rank ranges [fi*P^2, (fi+1)*P^2), so each face's segment and the inverse
// rank table fill in parallel over disjoint writes; the content of every
// entry depends only on its index, making the result byte-identical at any
// GOMAXPROCS.
func (cc *CubeCurve) build(base *Curve) {
	k := cc.m.NumElems()
	perFace := k / mesh.NumFaces
	cc.order = make([]mesh.ElemID, k)
	cc.rank = make([]int, k)
	par.ForBlocks(len(cc.path), func(fi int) {
		f := cc.path[fi]
		t := cc.xf[f]
		out := cc.order[fi*perFace : (fi+1)*perFace]
		for i, p := range base.Order() {
			q := t.Apply(p, base.Side())
			out[i] = cc.m.ID(f, q.X, q.Y)
		}
	})
	par.ForChunks(k, 1<<15, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			cc.rank[cc.order[r]] = r
		}
	})
}

// Schedule returns the refinement schedule used per face, or nil when the
// curve was built from a baseline ordering via NewCubeCurveFromBase.
func (cc *CubeCurve) Schedule() Schedule { return cc.sched }

// Len returns the number of elements on the curve (6 * Ne^2).
func (cc *CubeCurve) Len() int { return len(cc.order) }

// At returns the element visited at the given curve rank.
func (cc *CubeCurve) At(rank int) mesh.ElemID { return cc.order[rank] }

// Rank returns the curve rank of element e.
func (cc *CubeCurve) Rank(e mesh.ElemID) int { return cc.rank[e] }

// Order returns the global visit order; the returned slice is owned by the
// curve and must not be modified.
func (cc *CubeCurve) Order() []mesh.ElemID { return cc.order }

// FacePath returns the order in which the curve traverses the cube faces.
func (cc *CubeCurve) FacePath() [mesh.NumFaces]mesh.Face { return cc.path }

// ElemXF returns the accumulated curve orientation at element e: the
// transform under which refinement of e (appending levels to the schedule)
// would continue the global curve. Because dihedral transforms distribute
// over block decomposition, the face orientation composed with the base
// curve's leaf orientation is exactly the transform the refined global curve
// would accumulate at e. Only meaningful for the Hilbert/Peano family; base
// orderings built from serpentine or Morton curves carry Identity leaf
// transforms.
func (cc *CubeCurve) ElemXF(e mesh.ElemID) XF {
	el := cc.m.Elem(e)
	t := cc.xf[el.Face]
	p := t.Inverse().Apply(Point{X: el.I, Y: el.J}, cc.base.Side())
	return t.Compose(cc.base.LeafXF(cc.base.Rank(p.X, p.Y)))
}

// IsContinuous reports whether consecutive elements on the global curve are
// edge-adjacent on the cubed-sphere (including across cube edges).
func (cc *CubeCurve) IsContinuous() bool {
	for i := 1; i < len(cc.order); i++ {
		if !isEdgeNeighbor(cc.m, cc.order[i-1], cc.order[i]) {
			return false
		}
	}
	return true
}
