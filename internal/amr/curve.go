// Tree-based space-filling order and weighted curve partitioning of a
// forest. Forest.Order proves the ordering correct by brute force on the
// finest uniform mesh; CurveOrder computes the same permutation the way
// production AMR frameworks do (Burstedde & Holke's tree SFCs, p4est): walk
// each leaf's refinement path below the base curve, accumulating the motif
// orientation level by level, so the cost is O(leaves · maxLevel) and no
// fine mesh is ever built. That makes weighted SFC partitions of adaptive
// meshes — the regime the paper's unit-cost experiments never reach —
// practical at any refinement depth.
package amr

import (
	"fmt"
	"math"
	"sort"

	"sfccube/internal/mesh"
	"sfccube/internal/par"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// leafKeyChunk is the minimum chunk size for the parallel leaf-key fill.
const leafKeyChunk = 1 << 10

// CurveOrder returns the SFC visit order of the leaves — the same
// permutation as Order — computed by descending each leaf's refinement tree
// below the base cubed-sphere curve instead of materialising the finest
// uniform mesh. The key of a leaf is its base element's curve rank followed
// by one base-4 Hilbert digit per refinement level (zero-padded to
// maxLevel), which is exactly the minimum fine-curve rank among the leaf's
// finest-level descendants; keys are unique because leaves do not overlap.
// Per-leaf keys are pure functions of the leaf and fan out across
// goroutines; the argsort compares unique integer keys, so the order is
// byte-identical at any GOMAXPROCS.
func (f *Forest) CurveOrder(order sfc.Order) ([]int, error) {
	keys, err := f.leafKeys(order)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(f.leaves))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return idx, nil
}

// leafKeys computes each leaf's fine-curve rank key: baseRank shifted up by
// 2*maxLevel bits, ORed with the leaf's refinement-path digits.
func (f *Forest) leafKeys(order sfc.Order) ([]uint64, error) {
	ne := f.base.Ne()
	// 6*Ne^2 base ranks and 2 bits per level must fit a uint64 key.
	if bits := 2*f.maxLevel + 3 + 2*intLog2Ceil(ne); bits > 63 {
		return nil, fmt.Errorf("amr: Ne=%d at maxLevel=%d overflows the leaf key", ne, f.maxLevel)
	}
	sched, err := sfc.ScheduleFor(ne, order)
	if err != nil {
		return nil, err
	}
	curve, err := sfc.NewCubeCurve(f.base, sched)
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, len(f.leaves))
	shift := uint(2 * f.maxLevel)
	par.ForChunks(len(f.leaves), leafKeyChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l := f.leaves[i]
			// One descent from the face root: the base levels give the
			// rank and orientation of the leaf's base element, the
			// refinement levels continue it digit by digit.
			rank, t := curve.ElemXF(f.base.ID(l.Face, l.X>>l.Level, l.Y>>l.Level))
			key := uint64(rank) << shift
			for lvl := 1; lvl <= l.Level; lvl++ {
				q := sfc.Point{X: (l.X >> (l.Level - lvl)) & 1, Y: (l.Y >> (l.Level - lvl)) & 1}
				var digit int
				digit, t = sfc.Descend(t, sfc.Hilbert, q)
				key |= uint64(digit) << (shift - 2*uint(lvl))
			}
			keys[i] = key
		}
	})
	return keys, nil
}

func intLog2Ceil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// Center returns the position of the leaf's centre on the unit sphere under
// the same equiangular gnomonic mapping package mesh uses for base elements.
func (l Leaf) Center(ne int) mesh.Vec3 {
	n := float64(ne << l.Level)
	a := -math.Pi/4 + math.Pi/2*(float64(l.X)+0.5)/n
	b := -math.Pi/4 + math.Pi/2*(float64(l.Y)+0.5)/n
	return mesh.EquiangularPoint(l.Face, a, b)
}

// LeafWeights evaluates a physics-proxy weight spec at every leaf centre and
// scales it by 2^level: a level-l cell is 2^l times smaller, so explicit
// time stepping subcycles it 2^l times per base step (the standard local
// time-stepping cost model for quadtree AMR). A uniform spec therefore still
// produces non-trivial weights on a refined forest — cost 2^level — which is
// exactly what makes unweighted splitting mis-balance adaptive meshes. The
// per-leaf evaluation is pure and fans out across goroutines.
func (f *Forest) LeafWeights(spec weights.Spec) []int64 {
	ne := f.base.Ne()
	w := make([]int64, len(f.leaves))
	par.ForChunks(len(f.leaves), leafKeyChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l := f.leaves[i]
			w[i] = spec.Weight(l.Center(ne)) << uint(l.Level)
		}
	})
	return w
}

// PartitionCurve splits the forest's space-filling leaf order into nparts
// contiguous segments of near-equal total weight and returns the
// leaf-to-part assignment. weights may be nil for uniform leaf cost
// (indexed by leaf, e.g. from LeafWeights); invalid weights fail with the
// typed errors of partition.ValidateWeights. This is the adaptive-mesh
// analogue of core.PartitionCurve: hanging nodes need no special casing
// because the curve order already interleaves refined children within their
// parent's rank interval.
func (f *Forest) PartitionCurve(order sfc.Order, nparts int, w []int64) (*partition.Partition, error) {
	idx, err := f.CurveOrder(order)
	if err != nil {
		return nil, err
	}
	assign, err := partition.SplitAlong(idx, nparts, w)
	if err != nil {
		return nil, err
	}
	return partition.FromAssignment(assign, nparts)
}
