package seam

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sfccube/internal/core"
)

// methodAssign partitions the Ne x Ne x 6 mesh into nranks parts with a
// core.Methods entry: "sfc" gives curve-contiguous rank ids, "kway" rank ids
// with no spatial order.
func methodAssign(t testing.TB, method string, ne, nranks int) []int32 {
	t.Helper()
	prob, err := core.NewProblem(ne)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.Run(context.Background(), method, prob, nranks, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return part.Assignment()
}

// TestBlockPlan checks the block plan over rank counts x worker counts for
// an SFC and a kway assignment: blocks are non-empty runs of consecutive
// ranks covering every rank once, hold near-equal element counts, follow the
// block-count rule, and the projected dependency lists lose no rank-level
// edge (and invent none).
func TestBlockPlan(t *testing.T) {
	solvers := map[int]*ShallowWater{}
	for _, ne := range []int{8, 16} {
		solvers[ne], _ = w2Solver(t, ne, 2)
	}
	for _, method := range []string{"sfc", "kway"} {
		for _, nranks := range []int{1, 2, 6, 7, 24, 96, 384} {
			ne := 8
			if method == "kway" && nranks == 384 {
				ne = 16 // at one element per rank kway leaves ranks empty
			}
			r, err := NewRunner(solvers[ne], methodAssign(t, method, ne, nranks), nranks)
			if err != nil {
				t.Fatal(err)
			}
			for nw := 1; nw <= 4; nw++ {
				t.Run(fmt.Sprintf("%s/ranks=%d/nw=%d", method, nranks, nw), func(t *testing.T) {
					checkBlockPlan(t, r, nw, method == "sfc")
				})
			}
		}
	}
}

func checkBlockPlan(t *testing.T, r *Runner, nw int, evenRanks bool) {
	pl := r.blockPlan(nw)
	nb := len(pl.start) - 1
	want := 1
	if nw > 1 {
		want = min(r.NRanks, blocksPerWorker*nw)
	}
	if nb != want || len(pl.commit) != nb || len(pl.state) != nb || len(pl.scr) != nw {
		t.Fatalf("%d blocks (%d commit, %d state words, %d scratch), want %d for %d workers",
			nb, len(pl.commit), len(pl.state), len(pl.scr), want, nw)
	}
	if again := r.blockPlan(nw); again != pl {
		t.Error("plan rebuilt for an unchanged worker count")
	}
	if pl.start[0] != 0 || int(pl.start[nb]) != r.NRanks {
		t.Fatalf("blocks span ranks [%d, %d), want [0, %d)", pl.start[0], pl.start[nb], r.NRanks)
	}
	owned := r.NumOwned()
	minElems, maxElems, maxRank := len(r.Assign), 0, 0
	for b := 0; b < nb; b++ {
		if pl.start[b] >= pl.start[b+1] {
			t.Fatalf("block %d is empty: ranks [%d, %d)", b, pl.start[b], pl.start[b+1])
		}
		elems := 0
		for rk := pl.start[b]; rk < pl.start[b+1]; rk++ {
			if pl.blockOf[rk] != int32(b) {
				t.Fatalf("blockOf[%d] = %d, want %d", rk, pl.blockOf[rk], b)
			}
			elems += owned[rk]
			maxRank = max(maxRank, owned[rk])
		}
		minElems, maxElems = min(minElems, elems), max(maxElems, elems)
	}
	// A block is a whole number of ranks, so it can miss the ideal share
	// len(Assign)/nb by up to one rank either way. With the near-equal ranks
	// of a curve cut that keeps any two blocks within one rank of each other;
	// kway's uneven ranks (24 of 14..17 elements into 16 blocks must mix
	// one- and two-rank blocks) only keep the per-block bound.
	if lo, hi := len(r.Assign)-maxRank*nb, len(r.Assign)+maxRank*nb; minElems*nb < lo || maxElems*nb > hi {
		t.Errorf("block element counts span [%d, %d]: more than the largest rank (%d) off the share %d/%d",
			minElems, maxElems, maxRank, len(r.Assign), nb)
	}
	if evenRanks && maxElems-minElems > maxRank {
		t.Errorf("block element counts span [%d, %d]: more than the largest rank (%d) apart",
			minElems, maxElems, maxRank)
	}

	// Every rank-level edge is inside one block or on a block edge of the
	// same kind, and every block edge comes from some rank-level edge.
	for _, k := range []struct {
		name        string
		rank, block [][]int32
	}{{"depsA", r.depsA, pl.depsA}, {"depsB", r.depsB, pl.depsB}, {"revDeps", r.revDeps, pl.revDeps}} {
		seen := make(map[[2]int32]bool)
		for rk, deps := range k.rank {
			b := pl.blockOf[rk]
			for _, n := range deps {
				bn := pl.blockOf[n]
				if bn == b {
					continue
				}
				seen[[2]int32{b, bn}] = true
				if !slices.Contains(k.block[b], bn) {
					t.Fatalf("%s: rank edge %d -> %d lost: block %d does not list block %d", k.name, rk, n, b, bn)
				}
			}
		}
		for b, deps := range k.block {
			for i, bn := range deps {
				if bn == int32(b) {
					t.Errorf("%s: block %d lists itself", k.name, b)
				}
				if i > 0 && deps[i-1] >= bn {
					t.Errorf("%s: block %d list not strictly ascending: %v", k.name, b, deps)
				}
				if !seen[[2]int32{int32(b), bn}] {
					t.Errorf("%s: block edge %d -> %d has no rank-level edge behind it", k.name, b, bn)
				}
			}
		}
	}
}

// TestRunAllocationBudget bounds the allocations of a steady-state Run at the
// benchmark's seam-step shape (384 ranks, 2 workers, 4 steps): the block plan,
// its epoch counters and the per-worker scratch live on the Runner, so a run
// allocates only its exec record, step countdown, wake queue and worker
// goroutine. The parent commit, which rebuilt per-rank counters and scratch
// every run, measured 30.
func TestRunAllocationBudget(t *testing.T) {
	const ne, ranks = 8, 384
	sw, dt := w2Solver(t, ne, 2)
	r, err := NewRunner(sw, methodAssign(t, "sfc", ne, ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = 2
	r.Run(4, dt) // builds the plan
	if got := testing.AllocsPerRun(20, func() { r.Run(4, dt) }); got > 12 {
		t.Errorf("Run(4, dt) allocates %.1f times, budget 12 (parent commit: 30)", got)
	}
}
