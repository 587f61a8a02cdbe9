// Package check is the partition-invariant oracle subsystem: a reusable
// verification layer that mechanically enforces the properties the paper
// (Dennis, IPPS 2003) claims about cubed-sphere partitions, so refactors of
// the hot paths cannot silently corrupt partition quality or curve
// bijectivity.
//
// It provides the oracles, each from first principles and sharing no code
// with the path it checks:
//
//   - Partition oracles (partition.go): structural validity (every element
//     assigned exactly once, part indices in range, part count respected)
//     and quality metrics (load balance, edgecut, total communication
//     volume) recomputed over the unique-edge list — then compared with
//     partition.ComputeStats (CrossCheckStats) or with the statistics a
//     caller measured on its own path (Audit).
//
//   - Surface oracles (surface.go): the isoperimetric lower bound and the
//     per-family compactness ceiling on every part's boundary.
//
//   - Curve oracles (curve.go): Hilbert / m-Peano / Hilbert-Peano
//     index-coordinate bijectivity, adjacency of consecutive curve points
//     both on a face and across cube-face seams (recomputed from the exact
//     integer corner-node keys rather than the mesh's adjacency lists), and
//     validity for every admissible domain size Ne = 2^n * 3^m up to a
//     bound.
//
//   - The DSS oracle (dss.go): black-box checks of the spectral-element
//     assembly plan.
//
// Audit is the one entry the published experiments call: every partition
// behind a table, figure, ablation or golden suite of cmd/experiments
// passes it in the cell that measures it (internal/experiments). The same
// oracles back the Go-native fuzz targets (FuzzCurveRoundTrip,
// FuzzPartitionValid, FuzzDSSPlan in fuzz_test.go).
package check

import "sort"

// CurveSizes returns every admissible SFC domain size Ne = 2^n * 3^m with
// 1 <= Ne <= bound, in increasing order. These are exactly the sizes the
// paper's SFC algorithm supports ("Unlike METIS, the SFC algorithm places
// restrictions on the problem size").
func CurveSizes(bound int) []int {
	var out []int
	for p2 := 1; p2 <= bound; p2 *= 2 {
		for v := p2; v <= bound; v *= 3 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
