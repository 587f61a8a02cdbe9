package check

import "encoding/json"

// GoldenCase freezes the quality metrics of one (mesh, part-count, method)
// cell — the numbers behind the paper's section-4 tables — so later PRs fail
// loudly when a refactor drifts partition quality.
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

// GoldenSuite is the serialised regression file: every frozen case.
type GoldenSuite struct {
	Comment string       `json:"comment,omitempty"`
	Cases   []GoldenCase `json:"cases"`
}

// DefaultGoldenCases is the case matrix the golden suite freezes: the
// paper's Table-2 configuration (Ne=16 on 768 processors) plus the
// acceptance matrix K in {4, 16, 64}, for every method — and the weighted
// regime the paper never reaches: the same mesh under both physics-proxy
// weight generators, so weighted curve splitting and weighted METIS costs
// are pinned alongside the unit-cost numbers.
func DefaultGoldenCases() []Case {
	var out []Case
	for _, nprocs := range []int{4, 16, 64, 768} {
		out = append(out, Case{Ne: 16, NProcs: nprocs, Seed: 1})
	}
	for _, spec := range []string{"cfl", "hv"} {
		for _, nprocs := range []int{16, 64} {
			out = append(out, Case{Ne: 16, NProcs: nprocs, Seed: 1, Weights: spec})
		}
	}
	return out
}

// ComputeGoldenSuite runs the differential harness over the case matrix and
// captures the frozen metrics for every method.
func ComputeGoldenSuite(cases []Case) (*GoldenSuite, error) {
	s := &GoldenSuite{
		Comment: "Frozen partition-quality metrics (paper section 4). " +
			"Refresh with: go run ./cmd/experiments -run all -out out/. See TESTING.md.",
	}
	for _, c := range cases {
		r, err := RunDifferential(c)
		if err != nil {
			return nil, err
		}
		for _, method := range Methods {
			s.Cases = append(s.Cases, goldenCase(c, method, r.Metrics[method]))
		}
	}
	return s, nil
}

// goldenCase freezes the metrics of one method on one case.
func goldenCase(c Case, method string, m Metrics) GoldenCase {
	return GoldenCase{
		Ne: c.Ne, NProcs: c.NProcs, Method: method, Seed: c.Seed,
		Weights:     c.Weights,
		LBNelemd:    m.LBNelemd,
		LBSpcv:      m.LBSpcv,
		EdgeCut:     m.EdgeCut,
		TCV:         m.TotalCommVolume,
		CutVertices: m.CutVertices,
		SVMaxRatio:  m.SVMaxRatio,
	}
}

// JSON renders the suite as indented JSON with a trailing newline, the
// format of out/golden-*.json.
func (s *GoldenSuite) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
