package experiments

import (
	"context"
	"fmt"
	"math"

	"sfccube/internal/core"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// movingStormWeights returns element weights at simulation phase t in
// [0, 1): a heavy "storm" (4x cost) covering a spherical cap whose centre
// drifts westward around the equator -- the classical moving-load scenario
// for dynamic partitioning.
func movingStormWeights(m *mesh.Mesh, t float64) []int64 {
	k := m.NumElems()
	w := make([]int64, k)
	lon := 2 * math.Pi * t
	centre := mesh.Vec3{X: math.Cos(lon), Y: math.Sin(lon), Z: 0}
	for e := 0; e < k; e++ {
		c := m.ElemCenter(mesh.ElemID(e))
		if c.Dot(centre) > math.Cos(math.Pi/6) { // 30-degree cap
			w[e] = 4
		} else {
			w[e] = 1
		}
	}
	return w
}

// weightedLB is equation (1) over the total weight of every part of p,
// summed in int64 as SetWeights and StatsOver accept them.
func weightedLB(p *partition.Partition, weights []int64) float64 {
	load := make([]int64, p.NumParts())
	for v, q := range p.Assignment() {
		load[q] += weights[v]
	}
	return partition.LoadBalance(load)
}

// DynamicRepartition reproduces the dynamic-partitioning use case the SFC
// literature is built on (Pilkington & Baden, the paper's reference [6]):
// element costs drift over time (a moving storm), the mesh is repartitioned
// every interval, and the cost of repartitioning is the number of elements
// that change owner. The SFC repartitioner re-cuts a fixed curve, so
// successive partitions are similar; partitioning from scratch with the
// METIS-style K-way algorithm reshuffles elements wholesale (2003-era METIS
// had no diffusive repartitioner).
func DynamicRepartition(seed int64) (*Table, error) {
	t := &Table{
		Name:    "dynamic",
		Title:   "Dynamic repartitioning under a moving load (storm drifting around the equator)",
		Headers: []string{"step", "SFC moved %", "SFC LB(w)", "KWAY moved %", "KWAY LB(w)"},
	}
	const ne, nproc, steps = 16, 96, 16
	m, err := mesh.New(ne)
	if err != nil {
		return nil, err
	}
	rep, err := core.NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		return nil, err
	}
	var lastKway *partition.Partition
	var sfcMovedTotal, kwayMovedTotal float64
	for step := 0; step < steps; step++ {
		weights := movingStormWeights(m, float64(step)/float64(steps))

		sfcPart, mig, err := rep.Update(nproc, weights, 0)
		if err != nil {
			return nil, err
		}
		// KWAY from scratch on the step's load model: a fresh problem (and
		// weighted graph) over the shared mesh.
		prob, err := core.ProblemFrom(ne, m, nil)
		if err != nil {
			return nil, err
		}
		if err := prob.SetWeights(weights); err != nil {
			return nil, err
		}
		kwayPart, err := core.Run(context.Background(), "kway", prob, nproc, seed, nil)
		if err != nil {
			return nil, err
		}
		var kwayMig core.Migration
		if lastKway != nil {
			kwayMig, err = core.MigrationBetween(lastKway, kwayPart, 0)
			if err != nil {
				return nil, err
			}
		}
		lastKway = kwayPart

		if step > 0 {
			sfcMovedTotal += mig.MovedFraction
			kwayMovedTotal += kwayMig.MovedFraction
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", step),
			fmt.Sprintf("%.1f", mig.MovedFraction*100),
			fmt.Sprintf("%.3f", weightedLB(sfcPart, weights)),
			fmt.Sprintf("%.1f", kwayMig.MovedFraction*100),
			fmt.Sprintf("%.3f", weightedLB(kwayPart, weights)),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mean migration per repartition: SFC %.1f%%, KWAY-from-scratch %.1f%%",
		sfcMovedTotal/float64(steps-1)*100, kwayMovedTotal/float64(steps-1)*100))
	return t, nil
}
