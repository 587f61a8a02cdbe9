package seam

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/obs"
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

	// Each block's work lists: its elements are the ascending union of its
	// ranks' Owned lists, and its nodes, ascending (plan order), are exactly
	// the shared nodes whose first member's rank lies in the block. Together
	// the blocks cover every element and every shared node once.
	if len(pl.elems) != nb || len(pl.nodes) != nb {
		t.Fatalf("%d element lists, %d node lists for %d blocks", len(pl.elems), len(pl.nodes), nb)
	}
	dss, npts := r.SW.Dss, r.SW.G.PointsPerElem()
	elemSeen, nodeSeen := make([]bool, len(r.Assign)), make([]bool, dss.NumSharedNodes())
	for b := 0; b < nb; b++ {
		var want []int32
		for rk := pl.start[b]; rk < pl.start[b+1]; rk++ {
			want = append(want, r.Owned(int(rk))...)
		}
		slices.Sort(want)
		if !slices.Equal(pl.elems[b], want) {
			t.Fatalf("block %d elements %v, want the ascending union of its ranks' %v", b, pl.elems[b], want)
		}
		for i, n := range pl.nodes[b] {
			if i > 0 && pl.nodes[b][i-1] >= n {
				t.Fatalf("block %d nodes not strictly ascending at %d: %d after %d", b, i, n, pl.nodes[b][i-1])
			}
			if owner := r.Assign[int(dss.pts[dss.ptr[n]])/npts]; pl.blockOf[owner] != int32(b) {
				t.Fatalf("block %d lists node %d, owned by rank %d of block %d", b, n, owner, pl.blockOf[owner])
			}
			if nodeSeen[n] {
				t.Fatalf("node %d listed twice", n)
			}
			nodeSeen[n] = true
		}
		for _, e := range pl.elems[b] {
			if elemSeen[e] {
				t.Fatalf("element %d listed twice", e)
			}
			elemSeen[e] = true
		}
	}
	if i := slices.Index(elemSeen, false); i >= 0 {
		t.Fatalf("element %d in no block", i)
	}
	if i := slices.Index(nodeSeen, false); i >= 0 {
		t.Fatalf("shared node %d in no block", i)
	}
	// The share of shared nodes whose members all lie in the owner's block
	// (no cross-block exchange): 1 with one block, logged for the rest.
	// BENCH_seam.json's block_interior_node_frac is this count for 384 sfc
	// ranks at degree 7 (this table runs degree 2).
	interior := 0
	for b, nodes := range pl.nodes {
		for _, n := range nodes {
			if !slices.ContainsFunc(dss.pts[dss.ptr[n]:dss.ptr[n+1]], func(p int32) bool {
				return pl.blockOf[r.Assign[int(p)/npts]] != int32(b)
			}) {
				interior++
			}
		}
	}
	t.Logf("block_interior_node_frac %d/%d = %.4f", interior, len(nodeSeen), float64(interior)/float64(len(nodeSeen)))
	if nb == 1 && interior != len(nodeSeen) {
		t.Errorf("one block leaves %d of %d shared nodes exchanging with another block", len(nodeSeen)-interior, len(nodeSeen))
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

// TestChargeSpan holds the apportionment of a block-task's span: over a
// block's ranks the shares sum to the span exactly, and each is within 1 ns
// of span*own/total. The block is ranks [1, 1+len(owns)) of a runner whose
// rank 0 (another block) must stay untouched.
func TestChargeSpan(t *testing.T) {
	check := func(t *testing.T, span time.Duration, owns []int) []time.Duration {
		t.Helper()
		r := &Runner{elemsOf: make([][]int32, 1+len(owns)), BusyTime: make([]time.Duration, 1+len(owns))}
		total := 0
		for i, o := range owns {
			r.elemsOf[1+i] = make([]int32, o)
			total += o
		}
		r.chargeSpan(1, int32(1+len(owns)), total, span, false, nil, obs.Event{Kind: obs.EvStage})
		if r.BusyTime[0] != 0 {
			t.Errorf("span %d, elements %v: rank outside the block booked %d", span, owns, r.BusyTime[0])
		}
		shares := r.BusyTime[1:]
		var sum time.Duration
		for i, o := range owns {
			sum += shares[i]
			// |share - span*o/total| <= 1 ns, compared in integers:
			// |share*total - span*o| <= total.
			if d := int64(shares[i])*int64(total) - int64(span)*int64(o); d > int64(total) || d < -int64(total) {
				t.Errorf("span %d, elements %v: rank %d share %d is more than 1 ns off %d*%d/%d",
					span, owns, i, shares[i], span, o, total)
			}
		}
		if sum != span {
			t.Errorf("span %d, elements %v: shares %v sum to %d", span, owns, shares, sum)
		}
		return shares
	}
	for _, c := range []struct {
		span time.Duration
		owns []int
		want []time.Duration
	}{
		{0, []int{3, 4}, []time.Duration{0, 0}},
		{1000, []int{5}, []time.Duration{1000}},
		{7, []int{1}, []time.Duration{7}},
		{10, []int{1, 1, 1}, []time.Duration{3, 3, 4}},
		{100, []int{1, 2, 1}, []time.Duration{25, 50, 25}},
		{101, []int{13, 14, 14}, []time.Duration{32, 34, 35}},
		{5, []int{1, 1, 1, 1, 1, 1, 1}, []time.Duration{0, 1, 1, 0, 1, 1, 1}},
	} {
		if got := check(t, c.span, c.owns); !slices.Equal(got, c.want) {
			t.Errorf("span %d, elements %v: shares %v, want %v", c.span, c.owns, got, c.want)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		owns := make([]int, 1+rng.IntN(30))
		for j := range owns {
			owns[j] = 1 + rng.IntN(40)
		}
		check(t, time.Duration(rng.Int64N(int64(time.Second))), owns)
	}
}

// TestBusyTimeApportioned runs uneven curve cuts (Ne=4: 96 elements on 7
// ranks in one block, and on 40 ranks in 16 blocks of two or three) and
// checks that every rank's BusyTime is its elements' share of its block's
// total: within a block, busy time per element is equal up to the 1 ns per
// task the floor of each share may lose.
func TestBusyTimeApportioned(t *testing.T) {
	const ne, steps = 4, 3
	for _, c := range []struct{ ranks, workers int }{{7, 1}, {40, 2}} {
		t.Run(fmt.Sprintf("ranks=%d/workers=%d", c.ranks, c.workers), func(t *testing.T) {
			sw, dt := w2Solver(t, ne, 3)
			r, err := NewRunner(sw, methodAssign(t, "sfc", ne, c.ranks), c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers = c.workers
			r.Run(steps, dt)
			pl, tasks := r.plan, int64(steps*8+1)
			uneven := false
			for b := 0; b+1 < len(pl.start); b++ {
				lo, hi := pl.start[b], pl.start[b+1]
				var sum time.Duration
				for rk := lo; rk < hi; rk++ {
					sum += r.BusyTime[rk]
					uneven = uneven || len(r.Owned(int(rk))) != len(r.Owned(int(lo)))
				}
				if sum <= 0 {
					t.Fatalf("block %d booked no busy time", b)
				}
				total := int64(len(pl.elems[b]))
				for rk := lo; rk < hi; rk++ {
					// |busy - sum*own/total| <= tasks ns, in integers.
					own := int64(len(r.Owned(int(rk))))
					if d := int64(r.BusyTime[rk])*total - int64(sum)*own; d > tasks*total || d < -tasks*total {
						t.Errorf("block %d rank %d: busy %v for %d of %d elements, block total %v",
							b, rk, r.BusyTime[rk], own, total, sum)
					}
				}
			}
			if !uneven {
				t.Fatal("every block's ranks own equal element counts; the cut does not test the apportionment")
			}
		})
	}
}

// TestStageElemsAllocationFree: a stage sweep over a block's element list
// allocates nothing, for every stage (the RK stage state lives in the
// scratch, not in grid-sized slabs).
func TestStageElemsAllocationFree(t *testing.T) {
	sw, dt := w2Solver(t, 2, 7)
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), 6), 6)
	if err != nil {
		t.Fatal(err)
	}
	pl := r.blockPlan(2)
	for st := 0; st < 4; st++ {
		if got := testing.AllocsPerRun(10, func() { sw.stageElems(pl.elems[1], st, dt, pl.scr[0]) }); got != 0 {
			t.Errorf("stageElems stage %d allocates %.1f times, want 0", st, got)
		}
	}
}

// TestNewShallowWaterFootprint bounds the bytes NewShallowWater allocates at
// the seam-step configuration (Ne=8, degree 7): its measured figure + 10 %.
// The solver holds nine grid-sized state slabs (3 x 384 x 64 x 8 B each) and
// its DSS; a grid-sized stage slab coming back adds 0.56 MiB and fails here.
func TestNewShallowWaterFootprint(t *testing.T) {
	g := testGrid(t, 8, 7)
	NewShallowWater(g) // warm lazily initialised state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewShallowWater(g)
	runtime.ReadMemStats(&after)
	const budget = 3_306_112 * 11 / 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("NewShallowWater(Ne=8, degree 7) allocated %d bytes, budget %d", got, budget)
	}
}
