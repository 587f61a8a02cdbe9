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
// meaning, and letting it through would make the split produce degenerate
// (e.g. all-in-one-part) cuts; callers can match it with errors.As.
type WeightError struct {
	Index  int   // position of the offending weight
	Weight int64 // the offending value
}

func (e *WeightError) Error() string {
	return fmt.Sprintf("partition: negative weight %d at position %d", e.Weight, e.Index)
}

// ZeroTotalWeightError reports a weight vector that sums to zero: with no
// weight to balance, every cut point is equally "optimal" and the split
// would collapse to a degenerate one (one part hoarding nearly all items).
// Individual zero weights are fine — inactive elements are a normal feature
// of physics-proxy workloads — but at least one weight must be positive.
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
	var total int64
	for i, w := range weights {
		if w < 0 {
			return &WeightError{Index: i, Weight: w}
		}
		total += w
	}
	if total == 0 && len(weights) > 0 {
		return &ZeroTotalWeightError{N: len(weights)}
	}
	return nil
}

// SplitAlong cuts a visit order into nparts contiguous, non-empty segments of
// near-equal weight and returns the assignment indexed by item id:
// order[rank] is the id of the rank-th item visited (a bijection onto
// [0, len(order))), weights is indexed by id, nil meaning uniform cost. It is
// the final step of the SFC algorithm — "The space-filling curve is then
// subdivided into equal sized segments to achieve the partitioning" — for the
// cubed-sphere curve and the AMR leaf order alike, and it allocates the
// assignment (plus nparts+1 cut points when the weights differ) and nothing
// else, unless a weight exceeds 2^31-1 (splitPoints).
//
// For uniform (nil or all-equal) weights the split is exact: rank r goes to
// part r*nparts/n, so every part receives floor(n/nparts) or ceil(n/nparts)
// items and part p starts at rank ceil(p*n/nparts). For non-uniform weights
// the heaviest part is the least any contiguous split into nparts non-empty
// segments can have (the chains-on-chains optimum B*, which is what the
// load balance of equation (1) measures), and among such splits each cut
// lies where its segment's weight comes closest to the remaining average
// that B* and the parts still to come allow (splitPoints). Zero weights are
// allowed (inactive elements); negative weights fail with *WeightError,
// whose index is the item id, and an all-zero vector with
// *ZeroTotalWeightError.
//
// The cut points are arithmetic or a few sequential O(n) walks; only the fill
// fans out across goroutines, over disjoint ranks, so the assignment is
// byte-identical at any GOMAXPROCS.
func SplitAlong[I ~int | ~int32](order []I, nparts int, weights []int64) ([]int32, error) {
	n := len(order)
	assign := make([]int32, n)
	var total, heaviest, sumSq int64
	if weights != nil {
		if len(weights) != n {
			return nil, fmt.Errorf("partition: %d weights for %d items", len(weights), n)
		}
		// The cut reads the weights from assign, which the fill overwrites.
		var err error
		if total, heaviest, sumSq, err = gatherWeights(order, weights, assign); err != nil {
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
	// All n weights equal the heaviest exactly when they sum to n of it.
	if uniform := total%int64(n) == 0 && total/int64(n) == heaviest; !uniform {
		starts := splitPoints(order, weights, assign, nparts, total, heaviest, sumSq)
		first = func(p int) int { return starts[p] }
	}
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

// gatherWeights is ValidateWeights in visit order: it checks the weights,
// copies weights[order[r]] to gathered[r] as an int32, and returns their
// total, the heaviest and the sum of their squares. A weight above
// math.MaxInt32 does not survive the copy; splitPoints then reads weights
// instead. A negative weight is reported at its item id. The sum of squares
// can wrap only for weights far above any cost model here, and it seeds
// nothing but cutPoints' first guess: a wrapped sum costs probes, never a
// wrong cut.
func gatherWeights[I ~int | ~int32](order []I, weights []int64, gathered []int32) (total, heaviest, sumSq int64, err error) {
	for r, id := range order {
		w := weights[id]
		if w < 0 {
			return 0, 0, 0, &WeightError{Index: int(id), Weight: w}
		}
		total, heaviest, sumSq = total+w, max(heaviest, w), sumSq+w*w
		gathered[r] = int32(w)
	}
	if total == 0 && len(order) > 0 {
		return 0, 0, 0, &ZeroTotalWeightError{N: len(order)}
	}
	return total, heaviest, sumSq, nil
}

// splitPoints decides the cuts of a weighted split and returns the first rank
// of every part and n as a sentinel. This is the sequential decision kernel
// of the SFC split; everything downstream of it is pure fill. Its passes
// read the weights in visit order from one contiguous array, gathered
// (gatherWeights), and it allocates nothing else but the nparts+1 cut
// points, unless a weight exceeds math.MaxInt32: then it gathers an int64
// copy.
func splitPoints[I ~int | ~int32](order []I, weights []int64, gathered []int32, nparts int, total, heaviest, sumSq int64) []int {
	if heaviest <= math.MaxInt32 {
		return cutPoints(gathered, nparts, total, heaviest, sumSq)
	}
	w := make([]int64, len(order))
	for r, id := range order {
		w[r] = weights[id]
	}
	return cutPoints(w, nparts, total, heaviest, sumSq)
}

// cutPoints cuts the weights w, in visit order, into nparts contiguous,
// non-empty parts whose heaviest, B*, is as light as any such split allows.
//
// B* lies between max(ceil(total/nparts), heaviest) and
// ceil(total/nparts)+heaviest-1: packing each part as far as the latter
// allows closes a part only at ceil(total/nparts) or more, so nparts parts
// hold everything. A search between the two, probing each bound with one
// pack, finds B*. A backward pack at B* (packBack) leaves in starts the rank
// each part must reach for the rest to fit the parts after it, and one walk
// bounded by B* and by those ranks (cutWalk) places the cuts. Probes likely
// to pass are backward packs, the rest forward (fits), so the pack at B* is
// usually a probe's. Where the walk without bounds (the greedy prefix walk the
// tests keep as their reference) already reaches B*, the bounds never bind
// and its cuts stand.
//
// The search starts from an estimate. A forward pack closes a part short of
// its bound by about the mean residue of the item that did not fit, which
// for independent weights is sumSq/(2·total), so B* is near
// total/nparts + sumSq/(2·total). From there the probes step away from each
// verdict by 1, 1, 4, 16, … until both verdicts have been seen, then
// bisect. hv and cfl weights take two or three probes, where bisection from
// the bounds takes three or four.
func cutPoints[W int32 | int64](w []W, nparts int, total, heaviest, sumSq int64) []int {
	avg := (total + int64(nparts) - 1) / int64(nparts)
	lo, hi := max(avg, heaviest), avg+heaviest-1
	guess := int64(float64(total)/float64(nparts) + float64(sumSq)/(2*float64(total)) + 0.5)
	starts := make([]int, nparts+1)
	packed := int64(-1) // the bound whose backward pack starts holds, if any
	for probes, step, up, down, ok := 1, int64(1), false, false, false; lo < hi; probes++ {
		g := min(max(guess, lo), hi-1)
		// The first probe, and any after a failed one, is likely to pass:
		// it packs backward, so that passing leaves the must-reach ranks.
		if ok {
			ok = fits(w, nparts, g)
		} else if ok, packed = packBack(w, starts, g), g; !ok {
			packed = -1
		}
		if ok {
			hi, down, guess = g, true, g-step
		} else {
			lo, up, guess = g+1, true, g+step
		}
		if probes > 1 {
			step *= 4
		}
		if up && down {
			guess = lo + (hi-lo)/2
		}
	}
	if packed != hi {
		packBack(w, starts, hi)
	}
	cutWalk(w, starts, total, hi)
	return starts
}

// The two packs below are the search's probes, written for the compiler to
// turn the part boundary, which is data-dependent, into conditional moves
// rather than a branch that would mispredict once a part. They test acc > bound-v rather
// than acc+v > bound, so the test need not wait for the sum, and they are
// kept out of line so that their loop state stays in registers. bound must
// be at least the heaviest item.

// fits reports whether w splits into at most nparts contiguous parts none
// heavier than bound, packing each part as far as bound allows. A packing
// into fewer parts still means a split into exactly nparts non-empty parts,
// as nparts <= n and splitting a part makes no part heavier.
//
//go:noinline
func fits[W int32 | int64](w []W, nparts int, bound int64) bool {
	parts, acc := 1, int64(0)
	for _, x := range w {
		v := int64(x)
		next := acc + v
		if acc > bound-v {
			next, parts = v, parts+1
		}
		acc = next
	}
	return parts <= nparts
}

// packBack packs w backward from its end into parts of weight at most
// bound, each as long as bound allows, and reports whether nparts parts hold
// it all. When they do, it leaves in starts[p], for 0 < p < nparts, the
// least rank from which the items up to the end fit nparts-p such parts (no
// packing reaches further back), or 0 where the pack reached rank 0 with
// parts to spare; as each part holds an item, starts[p] <= n-(nparts-p).
// cutWalk never reads starts[0] or starts[nparts].
//
//go:noinline
func packBack[W int32 | int64](w []W, starts []int, bound int64) bool {
	p, acc := len(starts)-2, int64(0)
	for r := len(w) - 1; r >= 0; r-- {
		v := int64(w[r])
		next := acc + v
		if acc > bound-v {
			next, p = v, p-1
		}
		acc = next
		starts[max(p, 0)] = r
	}
	if p < 0 {
		return false
	}
	if p > 1 {
		clear(starts[1:p])
	}
	return true
}

// cutWalk walks w once and sets starts[p] for every part p. Each part takes
// its first item, then the next while that brings its weight closer to the
// remaining average (the remaining weight over the parts left), keeping one
// item for each part after it, never growing past bound, and always growing
// at least up to rank starts[p+1] as the caller left it. It reads
// starts[p+1] before writing starts[p], so starts carries those must-reach
// ranks in and the cuts out.
func cutWalk[W int32 | int64](w []W, starts []int, total, bound int64) {
	n, nparts := len(w), len(starts)-1
	pos, remaining := 0, total
	for part := 0; part < nparts-1; part++ {
		reach := starts[part+1]
		starts[part] = pos
		partsLeft := nparts - part
		target := float64(remaining) / float64(partsLeft)
		// A part up to floor(target) is no further from it than the part one
		// item shorter, so the float test runs only past that (or past bound).
		fast, last := min(int64(target), bound), n-(partsLeft-1)
		acc := int64(w[pos])
		for pos++; pos < last; pos++ {
			a := acc + int64(w[pos])
			if a > fast {
				if a > bound || pos >= reach && math.Abs(float64(a)-target) > math.Abs(float64(acc)-target) {
					break
				}
			}
			acc = a
		}
		remaining -= acc
	}
	// The last part takes everything left.
	starts[nparts-1], starts[nparts] = pos, n
}
