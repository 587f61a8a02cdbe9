package experiments

import (
	"fmt"

	"sfccube/internal/core"
	"sfccube/internal/machine"
	"sfccube/internal/sfc"
)

// AblationOrderings compares the Hilbert-family curves against the standard
// baseline orderings of the SFC-partitioning literature: the serpentine
// (continuous, no hierarchical locality) and Morton order (hierarchical
// locality, discontinuous). It isolates what each property of the paper's
// construction is worth.
func AblationOrderings(seed int64) (*Table, error) {
	t := &Table{
		Name:  "ablation-orderings",
		Title: "Ablation D: what do continuity and hierarchy buy? (Hilbert vs baselines)",
		Headers: []string{"Nproc", "ordering", "continuous", "edgecut", "LB(spcv)",
			"disconnected parts", "time (usec)"},
	}
	const ne = 16
	s, err := NewSetup("ablation-orderings", ne)
	if err != nil {
		return nil, err
	}
	sched, err := sfc.ScheduleFor(ne, sfc.PeanoFirst)
	if err != nil {
		return nil, err
	}
	// The baselines are strip- or jump-shaped by construction: their
	// audit family has no compactness ceiling, only the lower bound.
	type ordering struct {
		name, family string
		base         *sfc.Curve
	}
	orderings := []ordering{
		{"hilbert", "SFC", sfc.Generate(sched)},
		{"morton", "", sfc.GenerateMorton(4)},
		{"serpentine", "", sfc.GenerateSerpentine(ne)},
	}
	for _, nproc := range []int{96, 128, 384, 512, 768} {
		for _, o := range orderings {
			cc, err := sfc.NewCubeCurveFromBase(s.Mesh, o.base)
			if err != nil {
				return nil, err
			}
			p, err := core.PartitionCurve(cc, nproc, nil)
			if err != nil {
				return nil, err
			}
			m, err := s.measure(o.name, o.family, p)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nproc),
				o.name,
				fmt.Sprintf("%v", cc.IsContinuous()),
				fmt.Sprintf("%d", m.st.EdgeCutUnweighted),
				fmt.Sprintf("%.3f", m.st.LBSpcv),
				fmt.Sprintf("%d", m.st.DisconnectedParts),
				fmt.Sprintf("%.0f", m.rep.StepTime*1e6),
			})
		}
	}
	t.Notes = append(t.Notes,
		"all three orderings give perfect computational load balance; they differ in locality",
		"hilbert = continuous + hierarchical; morton = hierarchical only; serpentine = continuous only",
		"at processor counts whose segments align with power-of-4 blocks (96, 384, 768 for Ne=16) hilbert and morton coincide; at unaligned counts (128, 512) morton's Z-jumps split segments")
	return t, nil
}

// FutureScaling runs the paper's stated future work: "Experimental results
// on systems with greater than 768 processors should be obtained in order to
// investigate the scaling properties of the SFC approach." The machine model
// has no 768-processor limit, so we sweep the largest paper resolution
// (K=3456, Ne=24 -- mentioned in section 1 as the upper end of typical
// climate resolutions) out to 3456 processors.
func FutureScaling(seed int64) (*Figure, error) {
	// Focus on the region past the paper's 768-processor ceiling; the
	// dense low-count behaviour is already covered by Figures 7-10.
	return figure("future-scaling", "Future work: speedup beyond 768 processors, K=3456 (Ne=24)", "speedup",
		24, []int{1, 96, 192, 432, 864, 1152, 1728, 3456}, seed, machine.Speedup)
}
