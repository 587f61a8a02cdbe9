package check

import (
	"encoding/json"
	"fmt"

	"sfccube/internal/amr"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// AMR regression suite: the adaptive-mesh regime of the differential
// harness. Each case refines a cubed-sphere forest with a named pattern,
// attaches level-scaled physics-proxy leaf weights, and partitions it with
// the weighted tree curve (CURVE) and the graph methods (RB, KWAY); every
// partition passes the structural oracle and the surface-to-volume audit,
// and the quality metrics are frozen in out/golden-amr.json.

// AMRMethods is the strategy set of the adaptive regime: the weighted
// tree-SFC split plus the two graph partitioners that handle hanging-node
// meshes natively.
var AMRMethods = []string{"CURVE", "RB", "KWAY"}

// AMRCase is one cell of the adaptive case matrix.
type AMRCase struct {
	Ne       int    `json:"ne"`
	MaxLevel int    `json:"max_level"`
	Refine   string `json:"refine"` // named pattern, see amrRefineFunc
	NProcs   int    `json:"nprocs"`
	Weights  string `json:"weights"` // leaf-weight spec (level scaling always applies)
	Seed     int64  `json:"seed"`
}

// amrRefineFunc maps a named refinement pattern to its predicate. Patterns
// are deterministic functions of the leaf so cases are reproducible from
// their names alone.
func amrRefineFunc(name string) (amr.RefineFunc, error) {
	switch name {
	case "none":
		return nil, nil
	case "face-px":
		return func(l amr.Leaf) bool { return l.Face == mesh.FacePX }, nil
	case "checker":
		return func(l amr.Leaf) bool { return (l.X+l.Y)%2 == 0 }, nil
	case "column":
		return func(l amr.Leaf) bool { return l.X>>uint(l.Level) == 0 }, nil
	}
	return nil, fmt.Errorf("check: unknown AMR refinement pattern %q", name)
}

// AMRResult holds the audited metrics of every AMR method on one case.
type AMRResult struct {
	Case    AMRCase
	Leaves  int
	Metrics map[string]Metrics
}

// RunAMRDifferential builds the forest of one case, partitions it with every
// AMR method, validates each partition, audits its boundary against the
// surface-to-volume oracle, and returns the metrics per method. The graph
// carries the same leaf weights the curve split balances, so LBNelemd is the
// weighted load balance for all methods.
func RunAMRDifferential(c AMRCase) (*AMRResult, error) {
	refine, err := amrRefineFunc(c.Refine)
	if err != nil {
		return nil, err
	}
	f, err := amr.NewForest(c.Ne, c.MaxLevel, refine)
	if err != nil {
		return nil, err
	}
	spec, err := weights.Parse(c.Weights)
	if err != nil {
		return nil, fmt.Errorf("check: AMR case %+v: %w", c, err)
	}
	w := f.LeafWeights(spec)
	w32, err := weights.Int32(w)
	if err != nil {
		return nil, fmt.Errorf("check: AMR case %+v: %w", c, err)
	}
	g, err := f.Graph(8, 1)
	if err != nil {
		return nil, err
	}
	if err := g.SetVertexWeights(w32); err != nil {
		return nil, err
	}
	res := &AMRResult{Case: c, Leaves: f.NumLeaves(), Metrics: make(map[string]Metrics, len(AMRMethods))}
	for _, method := range AMRMethods {
		var p *partition.Partition
		switch method {
		case "CURVE":
			p, err = f.PartitionCurve(sfc.PeanoFirst, c.NProcs, w)
		case "RB":
			p, err = metis.Partition(g, c.NProcs, metis.Options{Method: metis.RB, Seed: c.Seed})
		case "KWAY":
			p, err = metis.Partition(g, c.NProcs, metis.Options{Method: metis.KWay, Seed: c.Seed})
		default:
			err = fmt.Errorf("check: unknown AMR method %q", method)
		}
		if err != nil {
			return nil, fmt.Errorf("check: AMR case %+v method %s: %w", c, method, err)
		}
		if err := ValidatePartition(g, p); err != nil {
			return nil, fmt.Errorf("AMR case %+v method %s: %w", c, method, err)
		}
		mt, err := ComputeMetrics(g, p)
		if err != nil {
			return nil, fmt.Errorf("AMR case %+v method %s: %w", c, method, err)
		}
		if err := auditSurface(g, p, mt, "AMR:"+method); err != nil {
			return nil, fmt.Errorf("AMR case %+v method %s: %w", c, method, err)
		}
		res.Metrics[method] = mt
	}
	return res, nil
}

// AMRGoldenCase freezes the quality of one (forest, part count, method)
// cell of the adaptive regime.
type AMRGoldenCase struct {
	AMRCase
	Method string `json:"amr_method"`

	Leaves     int     `json:"leaves"`
	LBWeighted float64 `json:"lb_weighted"`
	EdgeCut    int64   `json:"edgecut"`
	TCV        int64   `json:"tcv"`
	SVMaxRatio float64 `json:"sv_max_ratio"`
}

// AMRGoldenSuite is the serialised adaptive-regime regression file.
type AMRGoldenSuite struct {
	Comment string          `json:"comment,omitempty"`
	Cases   []AMRGoldenCase `json:"cases"`
}

// DefaultAMRGoldenCases covers the adaptive shapes that exercise distinct
// code paths: uniform refinement (pure scaling), single-face refinement
// (hanging nodes concentrated on one face boundary), and a checkerboard
// (hanging nodes everywhere), each under a physics-proxy weight spec.
func DefaultAMRGoldenCases() []AMRCase {
	return []AMRCase{
		{Ne: 4, MaxLevel: 1, Refine: "none", NProcs: 8, Weights: "uniform", Seed: 1},
		{Ne: 4, MaxLevel: 2, Refine: "face-px", NProcs: 12, Weights: "cfl", Seed: 1},
		{Ne: 6, MaxLevel: 2, Refine: "checker", NProcs: 16, Weights: "hv", Seed: 1},
		{Ne: 4, MaxLevel: 2, Refine: "column", NProcs: 6, Weights: "cfl:amp=16", Seed: 1},
	}
}

// ComputeAMRGoldenSuite runs the AMR differential harness over the case
// matrix and captures the frozen metrics for every method.
func ComputeAMRGoldenSuite(cases []AMRCase) (*AMRGoldenSuite, error) {
	s := &AMRGoldenSuite{
		Comment: "Frozen adaptive-mesh partition-quality metrics. " +
			"Refresh with: go run ./cmd/experiments -run all -out out/. See TESTING.md.",
	}
	for _, c := range cases {
		r, err := RunAMRDifferential(c)
		if err != nil {
			return nil, err
		}
		for _, method := range AMRMethods {
			m := r.Metrics[method]
			s.Cases = append(s.Cases, AMRGoldenCase{
				AMRCase: c, Method: method,
				Leaves:     r.Leaves,
				LBWeighted: m.LBNelemd,
				EdgeCut:    m.EdgeCut,
				TCV:        m.TotalCommVolume,
				SVMaxRatio: m.SVMaxRatio,
			})
		}
	}
	return s, nil
}

// JSON renders the suite as indented JSON with a trailing newline.
func (s *AMRGoldenSuite) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
