package experiments

import "sfccube/internal/check"

// Suite is a golden regression file, out/golden-*.json: the frozen cases of
// one matrix of audited cells. The byte gate on out/ holds it, so a refactor
// that drifts partition quality fails loudly.
type Suite[C any] struct {
	Comment string `json:"comment,omitempty"`
	Cases   []C    `json:"cases"`
}

const refreshNote = "Refresh with: go run ./cmd/experiments -run all -out out/. See TESTING.md."

// GoldenCase freezes the oracle metrics of one (mesh, part-count, method)
// cell — the numbers behind the paper's section-4 tables.
type GoldenCase struct {
	Ne      int    `json:"ne"`
	NProcs  int    `json:"nprocs"`
	Method  string `json:"method"`
	Seed    int64  `json:"seed"`
	Weights string `json:"weights,omitempty"` // physics-proxy spec; "" = unit cost

	LBNelemd    float64 `json:"lb_nelemd"`
	LBSpcv      float64 `json:"lb_spcv"`
	EdgeCut     int64   `json:"edgecut"`
	TCV         int64   `json:"tcv"`
	CutVertices int64   `json:"cut_vertices"`
	SVMaxRatio  float64 `json:"sv_max_ratio"` // worst Surface/sqrt(Volume) over parts
}

// frozen returns c with m's metrics filled in.
func (c GoldenCase) frozen(m check.Metrics) GoldenCase {
	c.LBNelemd, c.LBSpcv, c.EdgeCut = m.LBNelemd, m.LBSpcv, m.EdgeCut
	c.TCV, c.CutVertices, c.SVMaxRatio = m.TotalCommVolume, m.CutVertices, m.SVMaxRatio
	return c
}

// GoldenMetrics is the golden suite out/golden-metrics.json: every method
// (seed 1) on the paper's Table-2 mesh (Ne=16) at K in {4, 16, 64, 768}, and
// at K in {16, 64} under both physics-proxy weight generators, so weighted
// curve splitting and weighted METIS costs are pinned beside the unit-cost
// numbers. Each (case, method) pair is one audited cell.
func GoldenMetrics() (*Suite[GoldenCase], error) {
	const ne, seed = 16, 1
	var cases []GoldenCase
	for _, nprocs := range []int{4, 16, 64, 768} {
		cases = append(cases, GoldenCase{NProcs: nprocs})
	}
	for _, spec := range []string{"cfl", "hv"} {
		for _, nprocs := range []int{16, 64} {
			cases = append(cases, GoldenCase{NProcs: nprocs, Weights: spec})
		}
	}
	setups := map[string]*Setup{}
	for _, spec := range []string{"", "cfl", "hv"} {
		s, err := NewWeightedSetup("golden", ne, spec)
		if err != nil {
			return nil, err
		}
		setups[spec] = s
	}
	nm := len(methodNames)
	out := make([]GoldenCase, len(cases)*nm)
	err := cells(len(out), func(i int) error {
		c := cases[i/nm]
		c.Ne, c.Method, c.Seed = ne, methodNames[i%nm], seed
		m, err := setups[c.Weights].run(c.Method, c.NProcs, seed, nil)
		out[i] = c.frozen(m.mt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Suite[GoldenCase]{
		Comment: "Frozen partition-quality metrics (paper section 4). " + refreshNote,
		Cases:   out,
	}, nil
}

// AMRGoldenCase freezes the oracle metrics of one (forest, part count,
// method) cell of the adaptive regime.
type AMRGoldenCase struct {
	AMRCase
	Method string `json:"amr_method"`

	Leaves     int     `json:"leaves"`
	LBWeighted float64 `json:"lb_weighted"`
	EdgeCut    int64   `json:"edgecut"`
	TCV        int64   `json:"tcv"`
	SVMaxRatio float64 `json:"sv_max_ratio"`
}

// GoldenAMR is the golden suite out/golden-amr.json: forest cells of the
// shapes that exercise distinct code paths — uniform refinement (pure
// scaling), single-face refinement (hanging nodes concentrated on one face
// boundary), a checkerboard (hanging nodes everywhere) and a column — each
// under a level-scaled physics-proxy leaf-weight spec.
func GoldenAMR() (*Suite[AMRGoldenCase], error) {
	cases := []AMRCase{
		{Ne: 4, MaxLevel: 1, Refine: "none", NProcs: 8, Weights: "uniform", Seed: 1},
		{Ne: 4, MaxLevel: 2, Refine: "face-px", NProcs: 12, Weights: "cfl", Seed: 1},
		{Ne: 6, MaxLevel: 2, Refine: "checker", NProcs: 16, Weights: "hv", Seed: 1},
		{Ne: 4, MaxLevel: 2, Refine: "column", NProcs: 6, Weights: "cfl:amp=16", Seed: 1},
	}
	out := make([][]AMRGoldenCase, len(cases))
	err := cells(len(cases), func(i int) error {
		af, err := newAMRForest(cases[i])
		if err != nil {
			return err
		}
		ms, err := af.cell("golden-amr", cases[i])
		for j, m := range ms {
			out[i] = append(out[i], AMRGoldenCase{
				AMRCase: cases[i], Method: amrMethods[j].name, Leaves: af.f.NumLeaves(),
				LBWeighted: m.mt.LBNelemd, EdgeCut: m.mt.EdgeCut,
				TCV: m.mt.TotalCommVolume, SVMaxRatio: m.mt.SVMaxRatio,
			})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s := &Suite[AMRGoldenCase]{Comment: "Frozen adaptive-mesh partition-quality metrics. " + refreshNote}
	for _, c := range out {
		s.Cases = append(s.Cases, c...)
	}
	return s, nil
}
