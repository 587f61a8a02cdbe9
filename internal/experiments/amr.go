package experiments

import (
	"fmt"
	"math"

	"sfccube/internal/amr"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// AMRPartition evaluates SFC partitioning on an adaptively refined
// cubed-sphere -- the application domain of the paper's references [1], [2],
// [5] and [7]. A storm region (spherical cap) is refined two levels, the
// forest is 2:1 balanced, and the leaf mesh is partitioned by splitting the
// SFC leaf order against the METIS-style baselines.
func AMRPartition(seed int64) (*Table, error) {
	t := &Table{
		Name:    "amr",
		Title:   "AMR: partitioning an adaptively refined cubed-sphere (storm cap refined 2 levels)",
		Headers: []string{"Nproc", "method", "LB(nelemd)", "edgecut", "disconnected parts"},
	}
	const ne = 8
	centre := mesh.Vec3{X: 1, Y: 0, Z: 0}
	base, err := mesh.New(ne)
	if err != nil {
		return nil, err
	}
	forest, err := amr.NewForest(ne, 2, func(l amr.Leaf) bool {
		// Refine cells whose base-element centre is inside a 25-degree cap.
		s := 1 << l.Level
		id := base.ID(l.Face, l.X/s, l.Y/s)
		return base.ElemCenter(id).Dot(centre) > math.Cos(25*math.Pi/180)
	})
	if err != nil {
		return nil, err
	}
	if _, err := forest.Balance(); err != nil {
		return nil, err
	}
	g, err := forest.Graph(8, 1)
	if err != nil {
		return nil, err
	}
	n := forest.NumLeaves()
	t.Notes = append(t.Notes, fmt.Sprintf(
		"forest: %d leaves from a %d-element base mesh, balanced 2:1", n, base.NumElems()))

	for _, nproc := range []int{16, 64, 128} {
		// SFC: contiguous split of the leaf order.
		sfcPart, err := forest.PartitionCurve(sfc.PeanoFirst, nproc, nil)
		if err != nil {
			return nil, err
		}
		addRow := func(method string, p *partition.Partition) error {
			st, err := partition.ComputeStats(g, p)
			if err != nil {
				return err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nproc), method,
				fmt.Sprintf("%.3f", st.LBNelemd),
				fmt.Sprintf("%d", st.EdgeCutUnweighted),
				fmt.Sprintf("%d", st.DisconnectedParts),
			})
			return nil
		}
		if err := addRow("SFC", sfcPart); err != nil {
			return nil, err
		}
		for _, mm := range []metis.Method{metis.RB, metis.KWay} {
			p, err := metis.Partition(g, nproc, metis.Options{Method: mm, Seed: seed})
			if err != nil {
				return nil, err
			}
			if err := addRow(mm.String(), p); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
