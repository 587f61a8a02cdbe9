package experiments

import (
	"fmt"

	"sfccube/internal/core"
	"sfccube/internal/partition"
)

// Weighted regime: the paper's experiments assume unit element cost, but
// SEAM-style workloads are heterogeneous — weighted Hilbert-curve splitting
// is what keeps SFC partitioning competitive there (Liu et al.,
// arXiv:1708.01365). These experiments rerun the Table-2 / sweep machinery
// under a physics-proxy weight spec (package weights): the SFC curve is cut
// into equal-weight segments and the METIS methods read the same weights as
// graph vertex costs, so every column balances the same load model.

// DefaultWeightSpec is the weight generator the weighted experiments use
// when the caller expresses no preference: the advective-CFL proxy at its
// default 8x cost ratio.
const DefaultWeightSpec = "cfl"

// Table2Weighted is the weighted variant of Table 2: partition statistics
// for K=1536 on 768 processors under a physics-proxy weight spec. The
// headline row is LB(weight), equation (1) over per-part weight totals —
// the balance each method was actually asked to optimise.
func Table2Weighted(seed int64, spec string) (*Table, error) {
	s, err := NewWeightedSetup("table2-weighted", table2Ne, spec)
	if err != nil {
		return nil, err
	}
	if s.Problem.Weights() == nil {
		return nil, fmt.Errorf("experiments: weighted table needs a non-uniform spec, got %q", spec)
	}
	t := &Table{
		Name: "table2-weighted",
		Title: fmt.Sprintf("Table 2 (weighted, %s): partition statistics for K=%d on %d processors",
			spec, s.Mesh.NumElems(), table2NProc),
		Notes: []string{
			fmt.Sprintf("element weights from the %q physics proxy; LB(weight) is equation (1) over per-part weight totals", spec),
			"LB(nelemd) shows what weighted balancing costs in raw element counts",
		},
	}
	_, err = table2Fill(t, s, seed, []table2Row{
		{"LB(weight)", func(m measured) string {
			return fmt.Sprintf("%.3f", m.st.LBWeighted)
		}},
		rowLBNelemd,
		rowLBSpcv,
		rowEdgecut,
		{"TCV", func(m measured) string {
			return fmt.Sprintf("%d", m.st.TotalCommVolume)
		}},
	})
	return t, err
}

// WeightedSweep sweeps the equal-elements processor counts of a resolution
// and reports every method's weighted load balance, plus an SFC-UNW baseline
// — the unweighted curve split judged under the same weights — which is the
// gap weighted splitting exists to close. Every (method, nproc) pair is one
// cell, and the output is byte-identical at any GOMAXPROCS.
func WeightedSweep(ne, maxProc int, seed int64, spec string) (*Figure, error) {
	s, err := NewWeightedSetup("weighted-sweep", ne, spec)
	if err != nil {
		return nil, err
	}
	if s.Problem.Weights() == nil {
		return nil, fmt.Errorf("experiments: weighted sweep needs a non-uniform spec, got %q", spec)
	}
	// The SFC-UNW baseline cuts the same memoised curve with unit weights.
	curve, err := s.Problem.Curve()
	if err != nil {
		return nil, err
	}
	labels := append(methodNames[:len(methodNames):len(methodNames)], "SFC-UNW")
	lines, err := sweepLines(labels, procSweep(ne, maxProc), func(label string, np int) (float64, error) {
		var p *partition.Partition
		var err error
		family := label
		if label == "SFC-UNW" {
			p, err = core.PartitionCurve(curve, np, nil)
			family = "SFC"
		} else {
			p, err = s.Partition(label, np, seed, nil)
		}
		if err != nil {
			return 0, fmt.Errorf("experiments: weighted sweep %s nproc=%d: %w", label, np, err)
		}
		m, err := s.measure(label, family, p)
		return m.st.LBWeighted, err
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		Name:   "weighted-sweep",
		Title:  fmt.Sprintf("Weighted load balance vs Nproc, K=%d, weights=%s", 6*ne*ne, spec),
		XLabel: "Nproc", YLabel: "LB(weight)",
		Lines: lines,
	}, nil
}
