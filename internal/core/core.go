// Package core implements the paper's primary contribution: static
// partitioning of the cubed-sphere with space-filling curves (Dennis, IPPS
// 2003). A single continuous Hilbert, m-Peano, or nested Hilbert-Peano curve
// is threaded through all six cube faces and then subdivided into Nproc
// contiguous segments; each segment becomes the element set of one processor.
//
// Unlike the METIS algorithms (package metis), the SFC algorithm places
// restrictions on the problem size: the face dimension Ne must be of the
// form 2^n * 3^m. In exchange it produces perfectly balanced partitions
// whenever Nproc divides the element count, with geometrically compact
// sub-domains and no measurable partitioning cost.
package core

import (
	"context"

	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// Config describes an SFC partitioning problem.
type Config struct {
	// Ne is the number of spectral elements along one cube-face edge; the
	// total element count is K = 6*Ne*Ne. Ne must be of the form 2^n*3^m.
	Ne int
	// NProcs is the number of processors (partitions). Must satisfy
	// 1 <= NProcs <= K.
	NProcs int
	// Order selects the Hilbert/Peano refinement interleaving for mixed
	// sizes; ignored when Ne is a pure power of 2 or 3. The zero value is
	// PeanoFirst, the paper's construction.
	Order sfc.Order
	// Weights optionally assigns a computation weight to every element,
	// indexed by mesh.ElemID; the curve is then cut into segments of
	// near-equal total weight instead of equal element counts. Nil means
	// uniform weights.
	Weights []int64
}

// Result is a completed SFC partitioning.
type Result struct {
	Mesh      *mesh.Mesh
	Curve     *sfc.CubeCurve
	Schedule  sfc.Schedule
	Partition *partition.Partition
}

// PartitionCubedSphere runs the complete SFC partitioning algorithm — build
// the mesh, select the refinement schedule from the factorisation of Ne,
// generate the continuous cubed-sphere curve, split it into NProcs contiguous
// segments — as "new Problem, run sfc".
func PartitionCubedSphere(cfg Config) (*Result, error) {
	p, err := NewProblem(cfg.Ne)
	if err != nil {
		return nil, err
	}
	p.Order = cfg.Order
	if err := p.SetWeights(cfg.Weights); err != nil {
		return nil, err
	}
	part, err := Run(context.Background(), "sfc", p, cfg.NProcs, 0, nil)
	if err != nil {
		return nil, err
	}
	curve, _ := p.Curve() // memoised by the run above
	return &Result{Mesh: p.Mesh(), Curve: curve, Schedule: curve.Schedule(), Partition: part}, nil
}

// PartitionCurve splits an existing cubed-sphere curve into nprocs contiguous
// segments of near-equal weight and returns the element-to-processor
// assignment. weights may be nil for uniform element cost; otherwise it is
// indexed by mesh.ElemID, with the zero-weight and typed-error semantics of
// partition.SplitAlong.
func PartitionCurve(curve *sfc.CubeCurve, nprocs int, weights []int64) (*partition.Partition, error) {
	assign, err := partition.SplitAlong(curve.Order(), nprocs, weights)
	if err != nil {
		return nil, err
	}
	return partition.FromAssignment(assign, nprocs)
}

// EqualProcCounts returns the processor counts in [1, K] that divide the
// element count K = 6*ne*ne, i.e. those "chosen specifically so that an equal
// number of spectral elements are allocated to each processor" as in the
// paper's experiments (Table 1).
func EqualProcCounts(ne int) []int {
	k := 6 * ne * ne
	var out []int
	for p := 1; p <= k; p++ {
		if k%p == 0 {
			out = append(out, p)
		}
	}
	return out
}
