// Package partition defines the partition representation and the quality
// metrics of Dennis (IPPS 2003, section 2): the load-balance measure of
// equation (1), edgecut, and total communication volume, together with the
// contiguous-segment splitting used by the space-filling-curve partitioner.
package partition

import (
	"fmt"
	"math"
	"sort"

	"sfccube/internal/par"
)

// Partition assigns each of n vertices (spectral elements) to one of
// nparts parts (processors).
type Partition struct {
	nparts int
	assign []int32
}

// New creates a partition of n vertices into nparts parts, all initially
// assigned to part 0.
func New(n, nparts int) *Partition {
	return &Partition{nparts: nparts, assign: make([]int32, n)}
}

// FromAssignment wraps an existing assignment slice. Every entry must lie in
// [0, nparts).
func FromAssignment(assign []int32, nparts int) (*Partition, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts must be >= 1, got %d", nparts)
	}
	for v, p := range assign {
		if p < 0 || int(p) >= nparts {
			return nil, fmt.Errorf("partition: vertex %d assigned to part %d, want [0,%d)", v, p, nparts)
		}
	}
	return &Partition{nparts: nparts, assign: assign}, nil
}

// NumParts returns the number of parts.
func (p *Partition) NumParts() int { return p.nparts }

// NumVertices returns the number of vertices.
func (p *Partition) NumVertices() int { return len(p.assign) }

// Part returns the part of vertex v.
func (p *Partition) Part(v int) int { return int(p.assign[v]) }

// SetPart assigns vertex v to part q.
func (p *Partition) SetPart(v, q int) { p.assign[v] = int32(q) }

// Assignment returns the underlying assignment slice (owned by the
// partition; callers must not modify it).
func (p *Partition) Assignment() []int32 { return p.assign }

// Counts returns the number of vertices in each part.
func (p *Partition) Counts() []int {
	c := make([]int, p.nparts)
	for _, q := range p.assign {
		c[q]++
	}
	return c
}

// WeightedCounts returns the total vertex weight in each part.
func (p *Partition) WeightedCounts(vwgt func(v int) int32) []int64 {
	c := make([]int64, p.nparts)
	for v, q := range p.assign {
		c[q] += int64(vwgt(v))
	}
	return c
}

// LoadBalance computes equation (1) of the paper for a set S:
//
//	LB(S) = (max{S} - avg{S}) / max{S}
//
// A perfectly balanced set has LB = 0; larger values mean worse balance. An
// empty or all-zero set has LB = 0 by convention. Integer observations are
// converted one at a time, so the sum is the same left-to-right float64 sum
// whatever the element type.
func LoadBalance[T int | int64 | float64](s []T) float64 {
	if len(s) == 0 {
		return 0
	}
	max, sum := float64(s[0]), 0.0
	for _, x := range s {
		v := float64(x)
		if v > max {
			max = v
		}
		sum += v
	}
	if max <= 0 {
		return 0
	}
	avg := sum / float64(len(s))
	return (max - avg) / max
}

// WeightError reports a negative element weight handed to a weighted split
// or a weighted statistics computation. Negative computation cost has no
// meaning, and letting it through would make the greedy prefix walk produce
// degenerate (e.g. all-in-one-part) cuts; callers can match it with
// errors.As.
type WeightError struct {
	Index  int   // position of the offending weight
	Weight int64 // the offending value
}

func (e *WeightError) Error() string {
	return fmt.Sprintf("partition: negative weight %d at position %d", e.Weight, e.Index)
}

// ZeroTotalWeightError reports a weight vector that sums to zero: with no
// weight to balance, every cut point is equally "optimal" and the greedy
// walk would collapse to a degenerate split (one part hoarding nearly all
// items). Individual zero weights are fine — inactive elements are a normal
// feature of physics-proxy workloads — but at least one weight must be
// positive.
type ZeroTotalWeightError struct {
	N int // number of weights, all zero
}

func (e *ZeroTotalWeightError) Error() string {
	return fmt.Sprintf("partition: all %d weights are zero; cannot balance zero total weight", e.N)
}

// ValidateWeights checks a weight vector for the weighted splits and
// statistics: entries must be non-negative (*WeightError otherwise) and at
// least one must be positive (*ZeroTotalWeightError otherwise). An empty or
// nil vector is valid — it means uniform cost.
func ValidateWeights(weights []int64) error {
	_, _, err := validateWeights(weights)
	return err
}

// validateWeights rejects negative entries (*WeightError) and an all-zero
// vector (*ZeroTotalWeightError), returning the total and whether all
// weights are equal.
func validateWeights(weights []int64) (total int64, uniform bool, err error) {
	uniform = true
	for i, w := range weights {
		if w < 0 {
			return 0, false, &WeightError{Index: i, Weight: w}
		}
		if w != weights[0] {
			uniform = false
		}
		total += w
	}
	if total == 0 && len(weights) > 0 {
		return 0, false, &ZeroTotalWeightError{N: len(weights)}
	}
	return total, uniform, nil
}

// SplitAlong cuts a visit order into nparts contiguous, non-empty segments of
// near-equal weight and returns the assignment indexed by item id:
// order[rank] is the id of the rank-th item visited (a bijection onto
// [0, len(order))), weights is indexed by id, nil meaning uniform cost. It is
// the final step of the SFC algorithm — "The space-filling curve is then
// subdivided into equal sized segments to achieve the partitioning" — for the
// cubed-sphere curve and the AMR leaf order alike, and it allocates the
// assignment (plus nparts+1 cut points when the weights differ) and nothing
// else.
//
// For uniform (nil or all-equal) weights the split is exact: rank r goes to
// part r*nparts/n, so every part receives floor(n/nparts) or ceil(n/nparts)
// items and part p starts at rank ceil(p*n/nparts). For non-uniform weights a
// greedy prefix walk (splitPoints) cuts each segment at the point that brings
// its weight closest to the remaining average, while always leaving enough
// items for the remaining parts. Zero weights are allowed (inactive
// elements); negative weights fail with *WeightError, whose index is the
// item id, and an all-zero vector with *ZeroTotalWeightError.
//
// The cut points are arithmetic or a sequential O(n) walk; only the fill
// fans out across goroutines, over disjoint ranks, so the assignment is
// byte-identical at any GOMAXPROCS.
func SplitAlong[I ~int](order []I, nparts int, weights []int64) ([]int32, error) {
	n := len(order)
	var total int64
	uniform := true
	if weights != nil {
		if len(weights) != n {
			return nil, fmt.Errorf("partition: %d weights for %d items", len(weights), n)
		}
		var err error
		if total, uniform, err = validateWeights(weights); err != nil {
			return nil, err
		}
	}
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts must be >= 1, got %d", nparts)
	}
	if nparts > n {
		return nil, fmt.Errorf("partition: cannot split %d items into %d non-empty parts", n, nparts)
	}
	// first(p) is the first rank of part p, first(nparts) = n.
	first := func(p int) int { return (p*n + nparts - 1) / nparts }
	if !uniform {
		starts := splitPoints(order, weights, nparts, total)
		first = func(p int) int { return starts[p] }
	}
	assign := make([]int32, n)
	par.ForChunks(n, splitFillChunk, func(lo, hi int) {
		p := sort.Search(nparts, func(p int) bool { return first(p+1) > lo })
		for r := lo; r < hi; p++ {
			for end := min(first(p+1), hi); r < end; r++ {
				assign[order[r]] = int32(p)
			}
		}
	})
	return assign, nil
}

// splitFillChunk is the minimum chunk size for parallel assignment fills;
// below this the loop is memory-bandwidth trivial and goroutines cost more
// than they save.
const splitFillChunk = 1 << 15

// splitPoints runs the greedy prefix walk along the visit order: for each
// part, extend the segment while the running weight is closer to the
// remaining average than stopping, keeping one item per remaining part
// available. It returns the first rank of every part and n as a sentinel.
// This is the sequential decision kernel of the SFC split; everything
// downstream of it is pure fill.
func splitPoints[I ~int](order []I, weights []int64, nparts int, total int64) []int {
	n := len(order)
	starts := make([]int, nparts+1)
	pos := 0
	remaining := total
	for part := 0; part < nparts-1; part++ {
		starts[part] = pos
		partsLeft := nparts - part
		target := float64(remaining) / float64(partsLeft)
		// Always take at least one item, then the next only while it brings
		// the segment closer to target.
		acc := weights[order[pos]]
		for pos++; pos < n-(partsLeft-1); pos++ {
			w := weights[order[pos]]
			if math.Abs(float64(acc+w)-target) > math.Abs(float64(acc)-target) {
				break
			}
			acc += w
		}
		remaining -= acc
	}
	// The last part takes everything left.
	starts[nparts-1], starts[nparts] = pos, n
	return starts
}
