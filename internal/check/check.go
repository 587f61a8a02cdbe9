// Package check is the partition-invariant oracle subsystem: a reusable
// verification layer that mechanically enforces the properties the paper
// (Dennis, IPPS 2003) claims about cubed-sphere partitions, so refactors of
// the hot paths cannot silently corrupt partition quality or curve
// bijectivity.
//
// It provides three families of oracles:
//
//   - Partition oracles (partition.go): structural validity (every element
//     assigned exactly once, part indices in range, part count respected)
//     and quality metrics (load balance, edgecut, total communication
//     volume) recomputed independently, from first principles, over the
//     unique-edge list — then cross-checked against partition.ComputeStats.
//
//   - Curve oracles (curve.go): Hilbert / m-Peano / Hilbert-Peano
//     index-coordinate bijectivity, adjacency of consecutive curve points
//     both on a face and across cube-face seams (recomputed from the exact
//     integer corner-node keys rather than the mesh's adjacency lists), and
//     validity for every admissible domain size Ne = 2^n * 3^m up to a
//     bound.
//
//   - Differential harnesses (differential.go): run the SFC curves and the
//     three METIS-style algorithms (RB, KWAY, TV) over a shared case matrix
//     and assert the paper's signature orderings within tolerances — RB has
//     the best computational balance, KWAY the lowest edgecut.
//
// golden.go and amr_golden.go compute the paper-table metrics (section 4)
// and their adaptive-mesh twin that cmd/experiments writes to
// out/golden-{metrics,amr}.json, where the byte gate on out/ holds them; see
// TESTING.md at the repository root for how to refresh them. The same
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
