package amr

import (
	"sfccube/internal/core"
	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

// Repartitioner incrementally partitions an evolving AMR forest: each Update
// re-cuts the leaf SFC order of the current forest and relabels parts to
// maximise overlap with the previous update, so refine/coarsen cycles and
// drifting weights move few cells.
//
// Because the leaf set itself changes between updates, overlap and migration
// are measured on the finest uniform grid (every leaf is expanded to its
// descendants at maxLevel): a cell "moves" when the finest-level patch of
// sphere it covers changes owner, which stays well-defined when a leaf is
// split or merged between updates. Migration.Moved counts finest-grid
// cells, and bytesPerElem is the state carried per finest-grid cell.
//
// All updates must use forests with the same base Ne and maxLevel; a forest
// on a different fine grid resets the history (the update succeeds with zero
// reported migration).
type Repartitioner struct {
	order     sfc.Order
	prevFine  []int32
	prevParts int
}

// NewRepartitioner creates an AMR repartitioner using the given refinement
// order for the leaf curve (zero value = PeanoFirst, as in package core).
func NewRepartitioner(order sfc.Order) *Repartitioner {
	return &Repartitioner{order: order}
}

// Update partitions the forest's leaves into nprocs parts along the leaf
// SFC order, cutting by weights (per leaf, nil for uniform), and returns
// the per-leaf assignment together with the finest-grid migration cost
// relative to the previous update.
func (r *Repartitioner) Update(f *Forest, nprocs int, weights []int64, bytesPerElem int64) ([]int32, core.Migration, error) {
	p, err := f.PartitionCurve(r.order, nprocs, weights)
	if err != nil {
		return nil, core.Migration{}, err
	}
	assign := p.Assignment()

	// Expand to the finest uniform grid: every leaf covers scale x scale
	// finest cells on its face.
	side := f.base.Ne() << f.maxLevel
	fine := make([]int32, mesh.NumFaces*side*side)
	for li, l := range f.leaves {
		scale := 1 << (f.maxLevel - l.Level)
		faceBase := int(l.Face) * side * side
		for dy := 0; dy < scale; dy++ {
			row := faceBase + (l.Y*scale+dy)*side + l.X*scale
			for dx := 0; dx < scale; dx++ {
				fine[row+dx] = assign[li]
			}
		}
	}

	var mig core.Migration
	if r.prevFine != nil && len(r.prevFine) == len(fine) && r.prevParts == nprocs {
		relabel := core.OverlapRelabel(r.prevFine, fine, nprocs)
		for i, p := range fine {
			fine[i] = relabel[p]
		}
		for i, p := range assign {
			assign[i] = relabel[p]
		}
		for i := range fine {
			if fine[i] != r.prevFine[i] {
				mig.Moved++
			}
		}
		mig.MovedFraction = float64(mig.Moved) / float64(len(fine))
		mig.BytesMoved = int64(mig.Moved) * bytesPerElem
	}
	r.prevFine = fine
	r.prevParts = nprocs
	return assign, mig, nil
}
