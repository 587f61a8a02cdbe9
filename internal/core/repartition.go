package core

import (
	"fmt"
	"sort"

	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// Migration quantifies the cost of moving from one partition to another:
// every element whose owner changes must ship its state (spectral
// coefficients, tracers, physics state) across the network. Space-filling
// curves were originally adopted for *dynamic* partitioning precisely
// because re-cutting the same curve with new weights moves few elements
// (Pilkington & Baden 1994, the paper's reference [6]).
type Migration struct {
	// Moved is the number of elements whose owner changed.
	Moved int
	// MovedFraction is Moved divided by the element count.
	MovedFraction float64
	// BytesMoved is Moved times the per-element state size.
	BytesMoved int64
}

// MigrationBetween computes the migration cost from partition old to
// partition new. bytesPerElem is the state each element carries.
func MigrationBetween(old, new *partition.Partition, bytesPerElem int64) (Migration, error) {
	if old.NumVertices() != new.NumVertices() {
		return Migration{}, fmt.Errorf("core: partitions cover %d and %d elements",
			old.NumVertices(), new.NumVertices())
	}
	var m Migration
	for v := 0; v < old.NumVertices(); v++ {
		if old.Part(v) != new.Part(v) {
			m.Moved++
		}
	}
	m.MovedFraction = float64(m.Moved) / float64(old.NumVertices())
	m.BytesMoved = int64(m.Moved) * bytesPerElem
	return m, nil
}

// Repartitioner supports incremental repartitioning of a fixed cubed-sphere
// mesh as element weights evolve (e.g. convection or chemistry cost
// following the weather): the curve is built once and every update is a
// single SplitContiguous pass, so successive partitions shift segment
// boundaries instead of reshuffling elements.
type Repartitioner struct {
	curve *sfc.CubeCurve
	last  *partition.Partition
}

// NewRepartitioner builds the curve for the given face size and refinement
// order.
func NewRepartitioner(ne int, order sfc.Order) (*Repartitioner, error) {
	res, err := PartitionCubedSphere(Config{Ne: ne, NProcs: 1, Order: order})
	if err != nil {
		return nil, err
	}
	return &Repartitioner{curve: res.Curve}, nil
}

// Update computes a fresh partition for the given weights (nil for uniform)
// and returns it together with the migration cost relative to the previous
// Update (zero Migration on the first call). bytesPerElem sizes the
// migration traffic.
//
// Part labels are remapped to maximise overlap with the previous partition
// (the label assignment of a curve re-split is arbitrary, and without
// remapping a small weight change near the start of the curve renumbers
// every downstream segment). This is the standard post-pass of production
// SFC repartitioners (e.g. Zoltan's partition remap).
func (r *Repartitioner) Update(nprocs int, weights []int64, bytesPerElem int64) (*partition.Partition, Migration, error) {
	p, err := PartitionCurve(r.curve, nprocs, weights)
	if err != nil {
		return nil, Migration{}, err
	}
	var mig Migration
	if r.last != nil && r.last.NumParts() == nprocs {
		remapToPrevious(r.last, p)
		mig, err = MigrationBetween(r.last, p, bytesPerElem)
		if err != nil {
			return nil, Migration{}, err
		}
	}
	r.last = p
	return p, mig, nil
}

// remapToPrevious relabels the parts of cur to maximise element overlap with
// prev, greedily assigning each (newPart, oldPart) pair in decreasing
// overlap order.
func remapToPrevious(prev, cur *partition.Partition) {
	relabel := overlapRelabel(prev.Assignment(), cur.Assignment(), cur.NumParts())
	for v := 0; v < cur.NumVertices(); v++ {
		cur.SetPart(v, int(relabel[cur.Part(v)]))
	}
}

// overlapRelabel computes a part-label permutation for cur that maximises
// (greedily, in decreasing overlap order with deterministic tie-breaks by
// part ids) the number of positions keeping their previous owner: entry q
// of the returned table is the label the old partition used for the
// elements cur calls q. Both assignments must have the same length and
// labels in [0, nparts).
func overlapRelabel(prev, cur []int32, nparts int) []int32 {
	type pair struct{ newP, oldP int32 }
	overlap := make(map[pair]int)
	for v := range cur {
		overlap[pair{cur[v], prev[v]}]++
	}
	pairs := make([]pair, 0, len(overlap))
	for pr := range overlap {
		pairs = append(pairs, pr)
	}
	// Decreasing overlap; deterministic tie-break by part ids.
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if overlap[a] != overlap[b] {
			return overlap[a] > overlap[b]
		}
		if a.newP != b.newP {
			return a.newP < b.newP
		}
		return a.oldP < b.oldP
	})
	relabel := make([]int32, nparts)
	for i := range relabel {
		relabel[i] = -1
	}
	usedOld := make([]bool, nparts)
	for _, pr := range pairs {
		if relabel[pr.newP] < 0 && !usedOld[pr.oldP] {
			relabel[pr.newP] = pr.oldP
			usedOld[pr.oldP] = true
		}
	}
	// Assign leftovers to unused labels.
	free := make([]int32, 0, nparts)
	for q := int32(0); q < int32(nparts); q++ {
		if !usedOld[q] {
			free = append(free, q)
		}
	}
	for q, fi := int32(0), 0; q < int32(nparts); q++ {
		if relabel[q] < 0 {
			relabel[q] = free[fi]
			fi++
		}
	}
	return relabel
}
