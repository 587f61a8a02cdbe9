package supervise

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sfccube/internal/prng"
	"sfccube/internal/resilience"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultNaN corrupts one prognostic value of the target rank's first
	// owned element with NaN at the start of the step, exercising the
	// per-step sentinel and the rollback + dt-halving recovery path.
	FaultNaN FaultKind = iota
	// FaultRankDeath panics inside the target rank's work with a RankDeath
	// value, exercising worker panic recovery, survivor re-partitioning and
	// rollback.
	FaultRankDeath
	// FaultStall makes the target rank sleep stallFor, past the per-step
	// watchdog deadline, exercising timeout detection and
	// retry-from-checkpoint.
	FaultStall
	// FaultCorruptCheckpoint flips one bit of the newest stored checkpoint,
	// exercising CRC detection and previous-checkpoint fallback on the next
	// rollback or restart.
	FaultCorruptCheckpoint
	// FaultPartitionTimeout simulates a partitioner deadline overrun: the
	// supervisor re-partitions through the fallback chain under an already
	// expired deadline, forcing the cheap SFC/serpentine fallbacks.
	FaultPartitionTimeout
)

var faultNames = map[FaultKind]string{
	FaultNaN:               "nan",
	FaultRankDeath:         "rankdeath",
	FaultStall:             "stall",
	FaultCorruptCheckpoint: "corruptckpt",
	FaultPartitionTimeout:  "parttimeout",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one entry of an injection plan: fire Kind while executing step
// Step. Rank < 0 means "derive the target rank from the injector seed when
// the rank count is known" (rank-targeted kinds only).
type Fault struct {
	Kind FaultKind
	Step int
	Rank int

	fired bool
}

// RankDeath is the panic value of an injected rank failure; the supervisor
// recognises it inside a recovered seam.RankPanicError and takes the
// survivor re-partition path instead of treating it as a genuine bug.
type RankDeath struct {
	Rank, Step int
}

func (d RankDeath) String() string {
	return fmt.Sprintf("injected death of rank %d at step %d", d.Rank, d.Step)
}

// stallFor is the sleep injected by FaultStall; a supervisor's per-step
// deadline must be shorter for the watchdog to trip.
const stallFor = 150 * time.Millisecond

// Injector holds a seeded fault plan. All unspecified fault parameters
// (target ranks, corrupted bit positions) are derived from
// the single seed, so two runs built from the same (seed, plan) observe
// byte-identical faults — the whole failure scenario replays.
//
// The injector is safe for concurrent use: the runner hook fires from many
// worker goroutines.
type Injector struct {
	Seed uint64

	mu     sync.Mutex
	faults []Fault
	armed  bool
}

// NewInjector builds an injector for the given plan. Fault order is
// significant only for seed derivation.
func NewInjector(seed uint64, faults ...Fault) *Injector {
	return &Injector{Seed: seed, faults: append([]Fault(nil), faults...)}
}

// arm resolves derived fault parameters for a run over nranks ranks. Each
// unresolved rank consumes one splitmix64 draw in plan order. Re-arming
// after a rank death re-targets the still-unfired faults into the shrunken
// rank range, keeping the plan meaningful for the survivors.
func (in *Injector) arm(nranks int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.Seed
	for i := range in.faults {
		f := &in.faults[i]
		s = prng.Mix(s)
		switch f.Kind {
		case FaultNaN, FaultRankDeath, FaultStall:
			if f.Rank < 0 {
				f.Rank = int(s % uint64(nranks))
			} else if f.Rank >= nranks && !f.fired {
				// Explicit target no longer exists (rank died): wrap.
				f.Rank %= nranks
			}
		}
	}
	in.armed = true
}

// take consumes the first unfired fault of the given kind scheduled for
// (step, rank); rank < 0 matches any rank (supervisor-side kinds). It
// returns nil when no fault matches.
func (in *Injector) take(kind FaultKind, step, rank int) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.faults {
		f := &in.faults[i]
		if f.fired || f.Kind != kind || f.Step != step {
			continue
		}
		if rank >= 0 && f.Rank != rank {
			continue
		}
		f.fired = true
		cp := *f
		return &cp
	}
	return nil
}

// firedAt returns a copy of a fired fault of the given kind scheduled for
// step, or nil. The supervisor uses it to attribute a detected consequence
// (e.g. a watchdog timeout) to the deterministic fault parameters instead
// of scheduling-dependent observations.
func (in *Injector) firedAt(kind FaultKind, step int) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.faults {
		f := &in.faults[i]
		if f.fired && f.Kind == kind && f.Step == step {
			cp := *f
			return &cp
		}
	}
	return nil
}

// derivedBit returns a deterministic bit position for checkpoint corruption,
// keyed on the fault's step so distinct corruption faults flip distinct bits.
func (in *Injector) derivedBit(step int) int {
	return int(prng.Mix(in.Seed^uint64(step)) % (1 << 20))
}

// ParseFaults parses the cmd/seamsim -inject specification: a comma-
// separated list of kind@step or kind@step:rank entries, e.g.
//
//	nan@3,rankdeath@5:2,stall@7,corruptckpt@4,parttimeout@6
//
// Omitted ranks are derived from the injector seed.
func ParseFaults(spec string) ([]Fault, error) {
	var out []Fault
	err := resilience.SplitPlan(spec, "fault", "fault", "kind@step[:rank]", faultNames, func(item string, kind FaultKind, stepStr, rankStr string, hasRank bool) error {
		step, err := strconv.Atoi(strings.TrimSpace(stepStr))
		if err != nil || step < 0 {
			return fmt.Errorf("resilience: fault %q: bad step %q", item, stepStr)
		}
		rank := -1
		if hasRank {
			rank, err = strconv.Atoi(strings.TrimSpace(rankStr))
			if err != nil || rank < 0 {
				return fmt.Errorf("resilience: fault %q: bad rank %q", item, rankStr)
			}
		}
		out = append(out, Fault{Kind: kind, Step: step, Rank: rank})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
