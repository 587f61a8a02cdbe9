package check

import (
	"context"
	"fmt"
	"math"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/partition"
)

// Methods is the fixed strategy set of the differential harness, matching
// the paper's comparison: the SFC partitioner and the three METIS-style
// algorithms.
var Methods = []string{"SFC", "RB", "KWAY", "TV"}

// Case is one cell of the differential case matrix.
type Case struct {
	Ne     int   // face dimension; must be 2^n * 3^m for the SFC method
	NProcs int   // part count
	Seed   int64 // seed for the randomised METIS-style methods
	// Weights is a physics-proxy weight spec (package weights grammar,
	// e.g. "cfl" or "hv:amp=16,m=6"); empty means the paper's unit-cost
	// regime. Weighted cases thread the generated vector through both the
	// SFC curve split and the METIS vertex weights, so LBNelemd becomes a
	// weighted load balance for every method.
	Weights string
}

// Result holds the independently recomputed metrics of every method on one
// case. Each partition has already passed ValidatePartition and
// CrossCheckStats by the time a Result is returned.
type Result struct {
	Case    Case
	Metrics map[string]Metrics
}

// Tolerances is the slack allowed when asserting the paper's signature
// orderings between heuristic partitioners. The zero value picks the
// defaults documented in TESTING.md.
type Tolerances struct {
	// LBSlack is the absolute slack on load-balance comparisons: RB counts
	// as best balance when LB(RB) <= LB(other) + LBSlack. Zero means 0.02.
	LBSlack float64
	// EdgeCutFactor is the multiplicative slack on edgecut comparisons:
	// KWAY counts as lowest edgecut when cut(KWAY) <= factor * cut(other).
	// Zero means 1.25 — at small part counts the multilevel heuristics do
	// not strictly dominate each other (the paper's tables are in the
	// O(1)-elements-per-processor regime, where AssertPaperRegime applies
	// the strict orderings instead).
	EdgeCutFactor float64
}

func (t Tolerances) withDefaults() Tolerances {
	if t.LBSlack == 0 {
		t.LBSlack = 0.02
	}
	if t.EdgeCutFactor == 0 {
		t.EdgeCutFactor = 1.25
	}
	return t
}

// RunDifferential partitions one case with every method, validates each
// partition structurally, cross-checks partition.ComputeStats against the
// independent metric recomputation, audits every partition's boundary
// against the surface-to-volume oracle (lower bound always, per-family
// compactness ceiling for the compact methods), and returns the metrics per
// method.
func RunDifferential(c Case) (*Result, error) {
	prob, err := core.NewProblem(c.Ne)
	if err != nil {
		return nil, err
	}
	if err := prob.SetWeightSpec(c.Weights); err != nil {
		return nil, fmt.Errorf("check: case %+v: %w", c, err)
	}
	g, err := prob.Graph()
	if err != nil {
		return nil, fmt.Errorf("check: case %+v: %w", c, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("check: case %+v: %w", c, err)
	}
	res := &Result{Case: c, Metrics: make(map[string]Metrics, len(Methods))}
	for _, method := range Methods {
		p, err := core.Run(context.Background(), method, prob, c.NProcs, c.Seed, nil)
		if err != nil {
			return nil, fmt.Errorf("check: case %+v method %s: %w", c, method, err)
		}
		if p.NumParts() != c.NProcs {
			return nil, fmt.Errorf("check: case %+v method %s: %d parts, want %d",
				c, method, p.NumParts(), c.NProcs)
		}
		if err := ValidatePartition(g, p); err != nil {
			return nil, fmt.Errorf("case %+v method %s: %w", c, method, err)
		}
		if err := CrossCheckStats(g, p); err != nil {
			return nil, fmt.Errorf("case %+v method %s: %w", c, method, err)
		}
		mt, err := ComputeMetrics(g, p)
		if err != nil {
			return nil, fmt.Errorf("case %+v method %s: %w", c, method, err)
		}
		if err := auditSurface(g, p, mt, method); err != nil {
			return nil, fmt.Errorf("case %+v method %s: %w", c, method, err)
		}
		res.Metrics[method] = mt
	}
	return res, nil
}

// auditSurface runs the surface-to-volume oracle on one partition:
// cross-checks the harness's own surface accounting against the independent
// ComputeSurfaceToVolume pass, then applies the isoperimetric lower bound
// and — for methods with a calibrated ceiling — the compactness audit.
func auditSurface(g *graph.Graph, p *partition.Partition, mt Metrics, method string) error {
	sv, err := ComputeSurfaceToVolume(g, p)
	if err != nil {
		return err
	}
	for q := 0; q < sv.NParts; q++ {
		if sv.Volume[q] != mt.Counts[q] || sv.Surface[q] != mt.Surface[q] {
			return fmt.Errorf("check: surface oracle disagrees on part %d: volume %d/%d surface %d/%d",
				q, sv.Volume[q], mt.Counts[q], sv.Surface[q], mt.Surface[q])
		}
	}
	if math.Abs(sv.MaxRatio-mt.SVMaxRatio) > 1e-9 {
		return fmt.Errorf("check: surface oracle max ratio %.6f != metrics %.6f", sv.MaxRatio, mt.SVMaxRatio)
	}
	if err := sv.AuditLowerBound(g.NumVertices()); err != nil {
		return err
	}
	c := DefaultSVCeilings[method]
	return sv.AuditRatio(c.Ceiling, c.Additive)
}

// AssertSignature checks the paper's signature orderings on one differential
// result, within the given tolerances:
//
//   - SFC achieves perfect computational balance (LB = 0 exactly) whenever
//     NProcs divides the element count — the paper's headline property of
//     equal contiguous curve segments;
//   - RB has the best computational load balance of the three METIS-style
//     methods ("the bisection algorithm generates partitions with the best
//     load-balance");
//   - KWAY has the lowest edgecut ("the K-way algorithm generates
//     partitions with the smallest edgecut").
func (r *Result) AssertSignature(tol Tolerances) error {
	tol = tol.withDefaults()
	k := 6 * r.Case.Ne * r.Case.Ne
	sfcM, ok := r.Metrics["SFC"]
	if !ok {
		return fmt.Errorf("check: case %+v missing SFC metrics", r.Case)
	}
	// The exact-zero balance property is a statement about unit element
	// cost; under a weighted regime the curve split's heaviest part is the
	// least a contiguous split allows, which is rarely the exact average, and
	// weighted quality is frozen by the golden suite instead.
	if r.Case.Weights == "" && k%r.Case.NProcs == 0 && sfcM.LBNelemd != 0 {
		return fmt.Errorf("check: case %+v: SFC LB(nelemd)=%g, want exactly 0 when NProcs | K",
			r.Case, sfcM.LBNelemd)
	}
	rb := r.Metrics["RB"]
	for _, other := range []string{"KWAY", "TV"} {
		if rb.LBNelemd > r.Metrics[other].LBNelemd+tol.LBSlack {
			return fmt.Errorf("check: case %+v: RB LB %.4f worse than %s LB %.4f beyond slack %.3f",
				r.Case, rb.LBNelemd, other, r.Metrics[other].LBNelemd, tol.LBSlack)
		}
	}
	kway := r.Metrics["KWAY"]
	for _, other := range []string{"RB", "TV"} {
		if float64(kway.EdgeCut) > tol.EdgeCutFactor*float64(r.Metrics[other].EdgeCut) {
			return fmt.Errorf("check: case %+v: KWAY edgecut %d exceeds %.2fx %s edgecut %d",
				r.Case, kway.EdgeCut, tol.EdgeCutFactor, other, r.Metrics[other].EdgeCut)
		}
	}
	return nil
}

// AssertPaperRegime applies the strict, tolerance-free signature orderings
// that hold in the regime of the paper's tables — O(1) elements per
// processor, e.g. K=1536 on 768 processors (Table 2):
//
//   - RB's computational load balance is strictly no worse than KWAY's and
//     TV's (at O(1) elements per part the K-way methods visibly unbalance);
//   - KWAY's edgecut is strictly the lowest of SFC, RB and TV.
//
// Use it only for cases with NProcs >= NumElems/4; AssertSignature covers
// the general matrix.
func (r *Result) AssertPaperRegime() error {
	k := 6 * r.Case.Ne * r.Case.Ne
	if r.Case.NProcs*4 < k {
		return fmt.Errorf("check: case %+v is not in the paper regime (NProcs >= K/4)", r.Case)
	}
	rb := r.Metrics["RB"]
	for _, other := range []string{"KWAY", "TV"} {
		if rb.LBNelemd > r.Metrics[other].LBNelemd {
			return fmt.Errorf("check: case %+v: RB LB %.4f worse than %s LB %.4f",
				r.Case, rb.LBNelemd, other, r.Metrics[other].LBNelemd)
		}
	}
	kway := r.Metrics["KWAY"]
	for _, other := range []string{"SFC", "RB", "TV"} {
		if kway.EdgeCut > r.Metrics[other].EdgeCut {
			return fmt.Errorf("check: case %+v: KWAY edgecut %d above %s edgecut %d",
				r.Case, kway.EdgeCut, other, r.Metrics[other].EdgeCut)
		}
	}
	return nil
}
