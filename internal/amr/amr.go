// Package amr implements quadtree adaptive mesh refinement on the
// cubed-sphere with space-filling-curve ordering of the leaves -- the
// application domain the paper's SFC machinery comes from (its references
// [1], [2], [5] and [7] are all parallel AMR systems) and the setting where
// SFC partitioning later became standard practice (p4est, Zoltan).
//
// Every base element of a cubed-sphere mesh is the root of a quadtree; the
// leaves are the computational cells. Leaves are ordered by the Hilbert
// continuation of the base mesh's cubed-sphere curve: the curve schedule of
// the base mesh is extended by one Hilbert level per refinement level, under
// which the descendants of any cell occupy a contiguous rank interval, so
// sorting leaves by the rank of any finest-level descendant yields a valid
// space-filling order of the adaptive mesh. Contiguous segments of that
// order are the SFC partition.
package amr

import (
	"fmt"
	"sort"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

// Leaf is one computational cell of the adaptive mesh: cell (X, Y) of the
// level-Level refinement of face Face (the face grid at level L has
// Ne * 2^L cells per edge).
type Leaf struct {
	Face  mesh.Face
	Level int
	X, Y  int
}

// RefineFunc decides whether the given cell should be subdivided further.
type RefineFunc func(l Leaf) bool

// Forest is an adaptive cubed-sphere mesh.
type Forest struct {
	base     *mesh.Mesh
	maxLevel int
	leaves   []Leaf

	// curve order over the finest uniform grid; built lazily with Order.
	edgeNbrs   [][]int32
	cornerNbrs [][]int32
}

// NewForest refines the cubed-sphere with ne base elements per face edge:
// every cell for which refine returns true is subdivided, recursively, up to
// maxLevel levels below the base mesh. refine may be nil for no refinement.
func NewForest(ne, maxLevel int, refine RefineFunc) (*Forest, error) {
	base, err := mesh.New(ne)
	if err != nil {
		return nil, err
	}
	if maxLevel < 0 || maxLevel > 12 {
		return nil, fmt.Errorf("amr: maxLevel must be in [0, 12], got %d", maxLevel)
	}
	f := &Forest{base: base, maxLevel: maxLevel}
	var rec func(l Leaf)
	rec = func(l Leaf) {
		if l.Level < maxLevel && refine != nil && refine(l) {
			for _, c := range l.children() {
				rec(c)
			}
			return
		}
		f.leaves = append(f.leaves, l)
	}
	for e := 0; e < base.NumElems(); e++ {
		el := base.Elem(mesh.ElemID(e))
		rec(Leaf{Face: el.Face, Level: 0, X: el.I, Y: el.J})
	}
	if err := f.buildAdjacency(); err != nil {
		return nil, err
	}
	return f, nil
}

// children returns the four sub-cells of a leaf.
func (l Leaf) children() [4]Leaf {
	return [4]Leaf{
		{l.Face, l.Level + 1, 2 * l.X, 2 * l.Y},
		{l.Face, l.Level + 1, 2*l.X + 1, 2 * l.Y},
		{l.Face, l.Level + 1, 2 * l.X, 2*l.Y + 1},
		{l.Face, l.Level + 1, 2*l.X + 1, 2*l.Y + 1},
	}
}

// MaxLevel returns the deepest refinement level allowed.
func (f *Forest) MaxLevel() int { return f.maxLevel }

// NumLeaves returns the number of computational cells.
func (f *Forest) NumLeaves() int { return len(f.leaves) }

// Leaves returns the cells; the slice is owned by the forest.
func (f *Forest) Leaves() []Leaf { return f.leaves }

// buildAdjacency computes exact leaf adjacency by tiling every leaf edge
// with finest-level edge segments and every leaf corner with finest-level
// corner points, keyed by exact integer coordinates on the cube surface
// (the same trick package mesh uses, at the finest resolution). Two leaves
// sharing a fine edge segment are edge neighbours; two leaves sharing only
// a fine corner point are corner neighbours.
func (f *Forest) buildAdjacency() error {
	ne := f.base.Ne()
	// fineN: cells per face edge at the finest level; keys live on the
	// integer grid of doubled fine coordinates so segment midpoints are
	// integral.
	fineN := ne << f.maxLevel

	// cubeKey maps doubled face-grid coordinates (in [0, 2*fineN]) to a
	// cube-surface point key.
	cubeKey := func(face mesh.Face, dx, dy int) mesh.NodeKey {
		return mesh.CubeKey(face, fineN, dx-fineN, dy-fineN)
	}

	segOwners := map[mesh.NodeKey][]int32{}  // edge-segment midpoint -> leaves
	cornOwners := map[mesh.NodeKey][]int32{} // fine corner point -> leaves
	for i, l := range f.leaves {
		scale := 1 << (f.maxLevel - l.Level) // fine cells per leaf edge
		x0, y0 := l.X*scale, l.Y*scale       // fine-cell coords of the leaf
		x1, y1 := x0+scale, y0+scale
		// Edge segments: midpoints have one odd doubled coordinate.
		for t := 0; t < scale; t++ {
			mids := [4][2]int{
				{2*(x0+t) + 1, 2 * y0}, // bottom
				{2*(x0+t) + 1, 2 * y1}, // top
				{2 * x0, 2*(y0+t) + 1}, // left
				{2 * x1, 2*(y0+t) + 1}, // right
			}
			for _, mpt := range mids {
				k := cubeKey(l.Face, mpt[0], mpt[1])
				segOwners[k] = append(segOwners[k], int32(i))
			}
		}
		// Corner points of the leaf.
		for _, c := range [4][2]int{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}} {
			k := cubeKey(l.Face, 2*c[0], 2*c[1])
			cornOwners[k] = append(cornOwners[k], int32(i))
		}
	}
	n := len(f.leaves)
	edgeSet := make([]map[int32]bool, n)
	for i := range edgeSet {
		edgeSet[i] = map[int32]bool{}
	}
	for k, owners := range segOwners {
		if len(owners) > 2 {
			return fmt.Errorf("amr: edge segment %v shared by %d leaves", k, len(owners))
		}
		if len(owners) == 2 && owners[0] != owners[1] {
			edgeSet[owners[0]][owners[1]] = true
			edgeSet[owners[1]][owners[0]] = true
		}
	}
	cornerSet := make([]map[int32]bool, n)
	for i := range cornerSet {
		cornerSet[i] = map[int32]bool{}
	}
	for _, owners := range cornOwners {
		for a := 0; a < len(owners); a++ {
			for b := a + 1; b < len(owners); b++ {
				i, j := owners[a], owners[b]
				if i == j || edgeSet[i][j] {
					continue
				}
				cornerSet[i][j] = true
				cornerSet[j][i] = true
			}
		}
	}
	f.edgeNbrs = make([][]int32, n)
	f.cornerNbrs = make([][]int32, n)
	for i := 0; i < n; i++ {
		f.edgeNbrs[i] = sortedKeys(edgeSet[i])
		// Corner sets may still contain edge neighbours discovered later
		// (hanging nodes): remove any pair that is edge adjacent.
		for j := range cornerSet[i] {
			if edgeSet[i][j] {
				delete(cornerSet[i], j)
			}
		}
		f.cornerNbrs[i] = sortedKeys(cornerSet[i])
	}
	return nil
}

func sortedKeys(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Order returns the SFC visit order of the leaves: the rank, on the finest
// uniform cubed-sphere curve, of each leaf's first finest-level descendant,
// argsorted. The finest curve uses the base mesh's schedule extended by one
// Hilbert level per refinement level, so descendants of any cell are
// contiguous and the resulting leaf order is itself a space-filling order.
//
// It builds the Ne<<maxLevel mesh and its full curve on every call, so it is
// kept only as the brute-force reference FuzzForestOrder compares CurveOrder
// against; partitioning goes through CurveOrder / PartitionCurve.
func (f *Forest) Order(order sfc.Order) ([]int, error) {
	ne := f.base.Ne()
	baseSched, err := sfc.ScheduleFor(ne, order)
	if err != nil {
		return nil, err
	}
	sched := append(sfc.Schedule{}, baseSched...)
	for i := 0; i < f.maxLevel; i++ {
		sched = append(sched, sfc.Hilbert)
	}
	fineMesh, err := mesh.New(ne << f.maxLevel)
	if err != nil {
		return nil, err
	}
	curve, err := sfc.NewCubeCurve(fineMesh, sched)
	if err != nil {
		return nil, err
	}
	// The fine curve inverted by table, so this reference shares nothing
	// with the descent CurveOrder (through CubeCurve.ElemXF) runs.
	fineRank := make([]int, curve.Len())
	for r, e := range curve.Order() {
		fineRank[e] = r
	}
	// Rank of each leaf: the minimum fine rank over its descendants
	// (contiguity makes any descendant valid for sorting; the minimum is
	// used so the property is testable).
	ranks := make([]int, len(f.leaves))
	for i, l := range f.leaves {
		scale := 1 << (f.maxLevel - l.Level)
		best := -1
		for dy := 0; dy < scale; dy++ {
			for dx := 0; dx < scale; dx++ {
				id := fineMesh.ID(l.Face, l.X*scale+dx, l.Y*scale+dy)
				if r := fineRank[id]; best < 0 || r < best {
					best = r
				}
			}
		}
		ranks[i] = best
	}
	idx := make([]int, len(f.leaves))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] < ranks[idx[b]] })
	return idx, nil
}

// Balance enforces the 2:1 condition (no leaf may have an edge neighbour
// more than one level finer) by splitting violating leaves until the forest
// is balanced, rebuilding adjacency as needed -- the invariant production
// AMR frameworks (p4est) maintain so numerical stencils stay bounded. It
// returns the number of leaves that were split.
func (f *Forest) Balance() (int, error) {
	splits := 0
	for {
		violator := -1
		for i, l := range f.leaves {
			if l.Level >= f.maxLevel {
				continue
			}
			for _, j := range f.edgeNbrs[i] {
				if f.leaves[j].Level > l.Level+1 {
					violator = i
					break
				}
			}
			if violator >= 0 {
				break
			}
		}
		if violator < 0 {
			return splits, nil
		}
		l := f.leaves[violator]
		f.leaves[violator] = f.leaves[len(f.leaves)-1]
		f.leaves = f.leaves[:len(f.leaves)-1]
		ch := l.children()
		f.leaves = append(f.leaves, ch[:]...)
		splits++
		if err := f.buildAdjacency(); err != nil {
			return splits, err
		}
	}
}

// IsBalanced reports whether no leaf has an edge neighbour more than one
// level finer.
func (f *Forest) IsBalanced() bool {
	for i, l := range f.leaves {
		for _, j := range f.edgeNbrs[i] {
			if d := f.leaves[j].Level - l.Level; d > 1 || d < -1 {
				return false
			}
		}
	}
	return true
}

// Graph builds the partitioning graph of the adaptive mesh: vertices are
// leaves with unit weight (each leaf is one spectral element), edges connect
// leaves sharing an edge (weight edgeW) or corner (weight cornerW).
func (f *Forest) Graph(edgeW, cornerW int32) (*graph.Graph, error) {
	// The per-leaf neighbour lists are already sorted and disjoint, so the
	// dual graph streams straight into exactly-sized CSR arrays (two-way
	// merge per row) with no intermediate edge list.
	return graph.FromAdjacency(f.NumLeaves(), func(lo, hi int, ptr, adj, wts []int32) ([]int32, []int32, []int32) {
		ptr, adj, wts = append(ptr[:0], 0), adj[:0], wts[:0]
		for v := lo; v < hi; v++ {
			adj, wts = graph.AppendMerged(adj, wts, f.edgeNbrs[v], f.cornerNbrs[v], edgeW, cornerW)
			ptr = append(ptr, int32(len(adj)))
		}
		return ptr, adj, wts
	})
}
