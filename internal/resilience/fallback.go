package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/prng"
)

// Strategy names one link of the partition fallback chain.
type Strategy string

const (
	StrategyKWay       Strategy = "KWAY"
	StrategyRB         Strategy = "RB"
	StrategySFC        Strategy = "SFC"
	StrategySerpentine Strategy = "SERPENTINE"
)

// DefaultChain is the quality-first fallback order: the low-edgecut K-way
// partitioner, then recursive bisection (better balance, no balance-
// violation failure mode), then the O(K) SFC split (immune to deadline
// overrun but restricted to Ne = 2^n 3^m), then the serpentine ordering,
// which accepts any Ne. A weighted request can still fail the balance gate
// on every link and end in *ExhaustedError (ROADMAP item 7(c)).
var DefaultChain = []Strategy{StrategyKWay, StrategyRB, StrategySFC, StrategySerpentine}

// RepartitionChain is the fallback order for in-flight re-partitioning
// (e.g. after a rank death): cheap and predictable first, exactly the
// regime SFC partitioning was designed for.
var RepartitionChain = []Strategy{StrategySFC, StrategySerpentine}

// BalanceError reports a partition rejected by the acceptance check: its
// element load balance exceeded the spec's tolerance, or it left parts
// empty.
type BalanceError struct {
	Strategy   Strategy
	LB         float64
	Limit      float64
	EmptyParts int
}

func (e *BalanceError) Error() string {
	if e.EmptyParts > 0 {
		return fmt.Sprintf("resilience: %s partition left %d parts empty", e.Strategy, e.EmptyParts)
	}
	return fmt.Sprintf("resilience: %s partition LB(nelemd)=%.4f exceeds limit %.4f", e.Strategy, e.LB, e.Limit)
}

// UnsupportedNeError reports a face size the Hilbert–Peano construction
// cannot handle (Ne not of the form 2^n 3^m). It unwraps to the sfc error.
type UnsupportedNeError struct {
	Ne    int
	Cause error
}

func (e *UnsupportedNeError) Error() string {
	return fmt.Sprintf("resilience: SFC cannot partition Ne=%d: %v", e.Ne, e.Cause)
}

func (e *UnsupportedNeError) Unwrap() error { return e.Cause }

// Attempt records one abandoned link of the fallback chain.
type Attempt struct {
	Strategy Strategy
	Seed     int64
	Err      error
}

// ExhaustedError reports a chain whose every link failed.
type ExhaustedError struct {
	Attempts []Attempt
}

func (e *ExhaustedError) Error() string {
	parts := make([]string, len(e.Attempts))
	for i, a := range e.Attempts {
		parts[i] = fmt.Sprintf("%s(seed %d): %v", a.Strategy, a.Seed, a.Err)
	}
	return "resilience: partition fallback chain exhausted: " + strings.Join(parts, "; ")
}

// Defaults filled in by NewFallbackSpec.
const (
	// DefaultMaxLB is the accepted LB(nelemd) when the caller expresses no
	// preference.
	DefaultMaxLB = 0.10
	// DefaultSeed seeds the METIS-style strategies.
	DefaultSeed int64 = 1
)

// seedRetries is how many reseeded retries each METIS strategy gets after a
// balance violation before the chain moves on.
const seedRetries = 2

// FallbackSpec configures PartitionWithFallback. Every field is taken at
// face value — MaxLB = 0 is the strict perfect-balance gate, Seed = 0 the
// seed zero — so build specs with NewFallbackSpec, which fills in the
// Default* constants, and overwrite what differs.
type FallbackSpec struct {
	Ne     int
	NProcs int
	// Seed seeds the METIS-style strategies; reseeded retries derive fresh
	// seeds from it.
	Seed int64
	// Chain overrides DefaultChain.
	Chain []Strategy
	// MaxLB is the accepted LB(nelemd) (equation (1) of the paper; 0 is
	// perfect balance). Negative means "accept anything".
	MaxLB float64
	// Breakers optionally gates links with circuit breakers: a link whose
	// breaker refuses the call is skipped (FallbackResult.Skipped), one that
	// runs records its own outcome and its own elapsed time. Breakers are
	// asked only when the walk reaches their link, so a link behind the
	// winner is neither consulted nor charged. Nil, or no entry for a
	// strategy, means ungated.
	Breakers map[Strategy]*Breaker
	// Graph and Mesh are optional pre-built inputs, reused instead of
	// rebuilt; whatever is nil is built from Ne on first use.
	Graph *graph.Graph
	Mesh  *mesh.Mesh
	// Weights optionally assigns a computation weight to every element
	// (indexed by mesh.ElemID, length 6*Ne*Ne). Every chain link then
	// balances total weight instead of element counts: the SFC strategies
	// cut the curve into near-equal-weight segments, the METIS strategies
	// receive the weights as graph vertex weights (overwriting any weights
	// already on Graph), and the balance gate reads the weighted balance of
	// the candidate's stats, measured under this same vector. Nil means
	// uniform cost. Negative or all-zero weights fail the chain with the
	// partition layer's typed errors.
	Weights []int64
}

// NewFallbackSpec returns the spec for splitting the Ne cubed-sphere mesh
// into nprocs parts, with Seed and MaxLB set to the Default* constants:
//
//	spec := resilience.NewFallbackSpec(ne, nprocs)
//	spec.MaxLB = 0 // accept only perfect balance
func NewFallbackSpec(ne, nprocs int) FallbackSpec {
	return FallbackSpec{Ne: ne, NProcs: nprocs, Seed: DefaultSeed, MaxLB: DefaultMaxLB}
}

// FallbackResult is a successful chain outcome: the partition, its stats
// (the measurement the balance gate passed), the strategy and seed that
// produced it, every abandoned attempt before it (in order), each with its
// typed error, and the links ahead of the winner that their breaker refused.
type FallbackResult struct {
	Partition *partition.Partition
	Stats     partition.Stats
	Strategy  Strategy
	Seed      int64
	Attempts  []Attempt
	Skipped   []Strategy
}

func (r *FallbackResult) String() string {
	if len(r.Attempts) == 0 {
		return string(r.Strategy)
	}
	parts := make([]string, len(r.Attempts))
	for i, a := range r.Attempts {
		parts[i] = string(a.Strategy)
	}
	return strings.Join(parts, "→") + "→" + string(r.Strategy)
}

// PartitionWithFallback builds the core.Problem the spec describes (its Ne,
// Weights and any pre-built Mesh/Graph) and walks the chain over it; see
// PartitionProblem.
func PartitionWithFallback(ctx context.Context, spec FallbackSpec) (*FallbackResult, error) {
	prob, err := core.ProblemFrom(spec.Ne, spec.Mesh, spec.Graph)
	if err != nil {
		return nil, err
	}
	// Fail fast with the partition layer's typed errors before any strategy
	// runs: a malformed weight vector dooms every link alike.
	if err := prob.SetWeights(spec.Weights); err != nil {
		return nil, err
	}
	return PartitionProblem(ctx, prob, spec)
}

// PartitionProblem walks the spec's fallback chain over prob — one loop over
// core's method table entries — until a strategy yields a partition passing
// the balance acceptance check. The substrate (mesh, weights, graph, curves)
// is prob's; the spec's Ne, Weights, Mesh and Graph are not consulted.
//
// Each candidate is measured once, with prob.Stats, and the gate reads that
// measurement: a candidate with EmptyParts > 0 fails with *BalanceError, and
// so does one whose LBWeighted exceeds spec.MaxLB when MaxLB >= 0. The
// winner's stats are the result's Stats, so the balance the gate passed is
// the balance the caller reports.
//
//   - A seeded (METIS) strategy whose result violates the balance tolerance
//     is retried with a reseeded RNG up to seedRetries times before the chain
//     moves on — a different seed often escapes the bad local optimum (KWAY
//     trades balance for edgecut by design).
//   - A METIS strategy cancelled by ctx (deadline overrun) is recorded and
//     the chain falls through to the curve strategies, which are O(K) and
//     deliberately ignore the expired deadline: a partition is always
//     better than none.
//   - StrategySFC fails on unsupported Ne with *UnsupportedNeError, falling
//     through to StrategySerpentine, which accepts any Ne.
//   - A link with an entry in spec.Breakers runs only if its breaker allows
//     it, and tells the breaker how it went and how long it alone took,
//     measuring its candidates included.
//
// Every abandoned attempt appears in the result's Attempts with a typed
// error; if every link fails the returned error is *ExhaustedError.
func PartitionProblem(ctx context.Context, prob *core.Problem, spec FallbackSpec) (*FallbackResult, error) {
	if k := prob.Mesh().NumElems(); spec.NProcs < 1 || spec.NProcs > k {
		return nil, fmt.Errorf("resilience: cannot split Ne=%d (%d elements) into %d parts", prob.Ne(), k, spec.NProcs)
	}
	chain := spec.Chain
	if chain == nil {
		chain = DefaultChain
	}
	var attempts []Attempt
	var skipped []Strategy
	for _, strat := range chain {
		m, ok := core.LookupMethod(string(strat))
		if !ok {
			attempts = append(attempts, Attempt{Strategy: strat, Seed: spec.Seed,
				Err: fmt.Errorf("resilience: unknown strategy %q", strat)})
			continue
		}
		br := spec.Breakers[strat]
		if !br.Allow() {
			skipped = append(skipped, strat)
			continue
		}
		start := time.Now()
		p, st, s, err := runLink(ctx, prob, m, strat, spec, &attempts)
		br.Record(time.Since(start), err)
		if err == nil {
			return &FallbackResult{Partition: p, Stats: st, Strategy: strat, Seed: s, Attempts: attempts, Skipped: skipped}, nil
		}
	}
	return nil, &ExhaustedError{Attempts: attempts}
}

// runLink runs one chain link: the strategy once, then reseeded while it keeps
// failing the balance check. Every failed try is appended to attempts; the
// error returned is the last try's.
func runLink(ctx context.Context, prob *core.Problem, m core.Method, strat Strategy, spec FallbackSpec, attempts *[]Attempt) (*partition.Partition, partition.Stats, int64, error) {
	tries := 1
	if m.Seeded {
		tries += seedRetries
	}
	s := spec.Seed
	var err error
	for try := 0; try < tries; try++ {
		if try > 0 {
			s = int64(prng.Mix(uint64(s)) | 1) // reseeded retry: a fresh RNG stream
		}
		var p *partition.Partition
		var st partition.Stats
		if p, err = m.Run(ctx, prob, spec.NProcs, s, nil); err == nil {
			st, err = prob.Stats(p)
		}
		switch { // the acceptance check, on the candidate's one measurement
		case err != nil:
		case st.EmptyParts > 0:
			err = &BalanceError{Strategy: strat, EmptyParts: st.EmptyParts}
		case spec.MaxLB >= 0 && st.LBWeighted > spec.MaxLB:
			err = &BalanceError{Strategy: strat, LB: st.LBWeighted, Limit: spec.MaxLB}
		default:
			return p, st, s, nil
		}
		var ne *core.NeError
		if errors.As(err, &ne) {
			err = &UnsupportedNeError{Ne: ne.Ne, Cause: ne.Err}
		}
		*attempts = append(*attempts, Attempt{Strategy: strat, Seed: s, Err: err})
		if ctx.Err() != nil {
			break // deadline overran: no point reseeding, fall through
		}
		var be *BalanceError
		if !errors.As(err, &be) {
			break // hard failure; reseeding will not change it
		}
	}
	return nil, partition.Stats{}, s, err
}
