package check

import (
	"fmt"
	"math"
	"slices"

	"sfccube/internal/graph"
	"sfccube/internal/partition"
)

// ValidatePartition checks the structural validity of p against g:
//
//   - the partition covers exactly the graph's vertex set (every element is
//     assigned exactly once — verified by rebuilding the per-part element
//     sets and checking they are disjoint and cover [0, n));
//   - every part index lies in [0, NumParts());
//   - the declared part count is respected.
//
// It returns nil for a valid partition and a descriptive error otherwise.
func ValidatePartition(g *graph.Graph, p *partition.Partition) error {
	n := g.NumVertices()
	if p.NumVertices() != n {
		return fmt.Errorf("check: partition has %d vertices but graph has %d", p.NumVertices(), n)
	}
	if p.NumParts() < 1 {
		return fmt.Errorf("check: partition declares %d parts", p.NumParts())
	}
	// Rebuild per-part sets from the accessor API (not the raw slice) so a
	// broken Part/SetPart round trip is caught too.
	seen := make([]int, n) // times vertex v was handed out across parts
	parts := make([][]int, p.NumParts())
	for v := 0; v < n; v++ {
		q := p.Part(v)
		if q < 0 || q >= p.NumParts() {
			return fmt.Errorf("check: vertex %d assigned to part %d, want [0,%d)", v, q, p.NumParts())
		}
		parts[q] = append(parts[q], v)
		seen[v]++
	}
	total := 0
	for q, vs := range parts {
		for _, v := range vs {
			if seen[v] != 1 {
				return fmt.Errorf("check: vertex %d assigned %d times (last seen in part %d)", v, seen[v], q)
			}
		}
		total += len(vs)
	}
	if total != n {
		return fmt.Errorf("check: parts cover %d vertices, want %d", total, n)
	}
	return nil
}

// Metrics are the paper's partition quality numbers recomputed independently
// from first principles: a single pass over the unique undirected edge list
// (u < v), with per-part aggregation done on materialised per-vertex
// neighbour-part sets. It deliberately shares no code with
// partition.ComputeStats so the two implementations can cross-check each
// other.
type Metrics struct {
	NParts int

	Counts   []int   // vertices per part
	Weighted []int64 // vertex weight per part

	LBNelemd float64 // equation (1) over Weighted
	LBSpcv   float64 // equation (1) over Spcv

	Spcv []int64 // cut edge weight incident to each part

	EdgeCut           int64 // total weight of straddling undirected edges
	EdgeCutUnweighted int64 // number of straddling undirected edges

	TotalCommVolume int64 // sum over vertices of vsize(v) * #distinct remote parts
	CutVertices     int64 // vertices with at least one cut edge

	// Surface-to-volume quality (see surface.go): unweighted cut edges
	// incident to each part and the summary ratios Surface/sqrt(Volume).
	// Cross-checked against the independent ComputeSurfaceToVolume oracle
	// by Audit.
	Surface     []int64
	SVMaxRatio  float64
	SVMeanRatio float64
}

// ComputeMetrics recomputes every quality metric of p on g from first
// principles. The returned Metrics can be compared against
// partition.ComputeStats via CrossCheckStats.
func ComputeMetrics(g *graph.Graph, p *partition.Partition) (Metrics, error) {
	if err := ValidatePartition(g, p); err != nil {
		return Metrics{}, err
	}
	n := g.NumVertices()
	m := Metrics{
		NParts:   p.NumParts(),
		Counts:   make([]int, p.NumParts()),
		Weighted: make([]int64, p.NumParts()),
		Spcv:     make([]int64, p.NumParts()),
		Surface:  make([]int64, p.NumParts()),
	}
	for v := 0; v < n; v++ {
		q := p.Part(v)
		m.Counts[q]++
		m.Weighted[q] += int64(g.VertexWeight(v))
	}
	// Unique-edge pass: every undirected edge {u,v} visited exactly once as
	// u < v. A cut edge contributes its weight to the edgecut once and to
	// the single-processor communication volume of both endpoint parts.
	remote := make([]map[int]bool, n) // v -> set of remote parts adjacent to v
	for u := 0; u < n; u++ {
		adj, wts := g.Adj(u), g.AdjWeights(u)
		for i, vv := range adj {
			v := int(vv)
			if v <= u {
				continue
			}
			pu, pv := p.Part(u), p.Part(v)
			if pu == pv {
				continue
			}
			w := int64(wts[i])
			m.EdgeCut += w
			m.EdgeCutUnweighted++
			m.Spcv[pu] += w
			m.Spcv[pv] += w
			m.Surface[pu]++
			m.Surface[pv]++
			if remote[u] == nil {
				remote[u] = make(map[int]bool, 4)
			}
			if remote[v] == nil {
				remote[v] = make(map[int]bool, 4)
			}
			remote[u][pv] = true
			remote[v][pu] = true
		}
	}
	for v := 0; v < n; v++ {
		if len(remote[v]) > 0 {
			m.CutVertices++
			m.TotalCommVolume += int64(g.VertexSize(v)) * int64(len(remote[v]))
		}
	}
	m.LBNelemd = partition.LoadBalance(m.Weighted)
	m.LBSpcv = partition.LoadBalance(m.Spcv)
	nonEmpty := 0
	for q := 0; q < m.NParts; q++ {
		if m.Counts[q] == 0 {
			continue
		}
		nonEmpty++
		r := float64(m.Surface[q]) / math.Sqrt(float64(m.Counts[q]))
		m.SVMeanRatio += r
		if r > m.SVMaxRatio {
			m.SVMaxRatio = r
		}
	}
	if nonEmpty > 0 {
		m.SVMeanRatio /= float64(nonEmpty)
	}
	return m, nil
}

// CrossCheckStats compares the independently recomputed Metrics against the
// production partition.ComputeStats output for the same (g, p) pair and
// returns an error describing the first divergence (see compareStats).
func CrossCheckStats(g *graph.Graph, p *partition.Partition) error {
	m, err := ComputeMetrics(g, p)
	if err != nil {
		return err
	}
	st, err := partition.ComputeStats(g, p)
	if err != nil {
		return fmt.Errorf("check: ComputeStats: %w", err)
	}
	return compareStats(st, m)
}

// Audit is the oracle stack every published partition passes: it validates
// p against g, recomputes the Metrics from first principles, requires st —
// the statistics the caller measured on its own path (a mesh-view sweep, a
// forest graph) — to agree with them field for field, and audits every
// part's boundary against the surface-to-volume oracle: the isoperimetric
// lower bound always, and the compactness ceiling of family's
// DefaultSVCeilings entry (a family without one gets the lower bound only).
// It returns the oracle Metrics.
func Audit(g *graph.Graph, p *partition.Partition, st partition.Stats, family string) (Metrics, error) {
	m, err := ComputeMetrics(g, p)
	if err != nil {
		return Metrics{}, err
	}
	if err := compareStats(st, m); err != nil {
		return Metrics{}, err
	}
	if err := auditSurface(g, p, m, family); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// compareStats holds measured statistics to the oracle Metrics of the same
// partition. Integer metrics must match exactly; the load-balance ratios
// must agree to 1e-12. Per-part weights are compared when st carries them.
func compareStats(st partition.Stats, m Metrics) error {
	if st.NParts != m.NParts {
		return fmt.Errorf("check: NParts: stats=%d oracle=%d", st.NParts, m.NParts)
	}
	for q := 0; q < m.NParts; q++ {
		if st.Nelemd[q] != m.Counts[q] {
			return fmt.Errorf("check: Nelemd[%d]: stats=%d oracle=%d", q, st.Nelemd[q], m.Counts[q])
		}
		if st.PartWeights != nil && st.PartWeights[q] != m.Weighted[q] {
			return fmt.Errorf("check: PartWeights[%d]: stats=%d oracle=%d", q, st.PartWeights[q], m.Weighted[q])
		}
		if st.Spcv[q] != m.Spcv[q] {
			return fmt.Errorf("check: Spcv[%d]: stats=%d oracle=%d", q, st.Spcv[q], m.Spcv[q])
		}
	}
	if st.EdgeCut != m.EdgeCut {
		return fmt.Errorf("check: EdgeCut: stats=%d oracle=%d", st.EdgeCut, m.EdgeCut)
	}
	if st.EdgeCutUnweighted != m.EdgeCutUnweighted {
		return fmt.Errorf("check: EdgeCutUnweighted: stats=%d oracle=%d", st.EdgeCutUnweighted, m.EdgeCutUnweighted)
	}
	if st.TotalCommVolume != m.TotalCommVolume {
		return fmt.Errorf("check: TotalCommVolume: stats=%d oracle=%d", st.TotalCommVolume, m.TotalCommVolume)
	}
	if st.CutVertices != m.CutVertices {
		return fmt.Errorf("check: CutVertices: stats=%d oracle=%d", st.CutVertices, m.CutVertices)
	}
	if math.Abs(st.LBNelemd-m.LBNelemd) > 1e-12 {
		return fmt.Errorf("check: LBNelemd: stats=%g oracle=%g", st.LBNelemd, m.LBNelemd)
	}
	if math.Abs(st.LBSpcv-m.LBSpcv) > 1e-12 {
		return fmt.Errorf("check: LBSpcv: stats=%g oracle=%g", st.LBSpcv, m.LBSpcv)
	}
	minN, maxN := slices.Min(m.Counts), slices.Max(m.Counts)
	if st.MaxNelemd != maxN || st.MinNelemd != minN {
		return fmt.Errorf("check: Nelemd range: stats=[%d..%d] oracle=[%d..%d]",
			st.MinNelemd, st.MaxNelemd, minN, maxN)
	}
	return nil
}
