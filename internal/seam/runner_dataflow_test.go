package seam

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sfccube/internal/obs"
)

// TestRunnerBitwiseAcrossGOMAXPROCS locks the dataflow scheduler's core
// contract: at every worker count — one block inline on the caller (1) and
// epoch-scheduled blocks (2, 4) — the runner's results are bitwise identical
// to the sequential ShallowWater.Step integration, with GOMAXPROCS pinned to
// the worker count so the schedule really executes at that parallelism.
func TestRunnerBitwiseAcrossGOMAXPROCS(t *testing.T) {
	const steps = 3
	seqSW, dt := w2Solver(t, 2, 4)
	for s := 0; s < steps; s++ {
		seqSW.Step(dt)
	}
	for _, p := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(p)
		parSW, _ := w2Solver(t, 2, 4)
		r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), 4), 4)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		r.Workers = p
		r.Run(steps, dt)
		runtime.GOMAXPROCS(prev)
		requireBitwiseEqual(t, seqSW, parSW, "GOMAXPROCS="+string(rune('0'+p)))
	}
}

// TestRunnerBitwiseBlockMatrix extends the contract to multi-rank blocks:
// curve-cut ranks of the K=384 mesh at every rank x worker x GOMAXPROCS
// combination, as one Run and split in two, must reproduce the sequential
// integration bit for bit. One runner per rank count serves the whole sweep
// (state slabs restored in between), so the block plan is also rebuilt and
// reused across worker-count changes the way a long-lived runner sees them.
func TestRunnerBitwiseBlockMatrix(t *testing.T) {
	const ne, steps = 8, 3
	seqSW, dt := w2Solver(t, ne, 2)
	for s := 0; s < steps; s++ {
		seqSW.Step(dt)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, ranks := range []int{24, 96, 384} {
		parSW, _ := w2Solver(t, ne, 2)
		state := [][]float64{parSW.V1, parSW.V2, parSW.Phi}
		var initial [3][]float64
		for i, f := range state {
			initial[i] = slices.Clone(f)
		}
		r, err := NewRunner(parSW, methodAssign(t, "sfc", ne, ranks), ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for workers := 1; workers <= 4; workers++ {
				for _, split := range [][]int{{steps}, {1, steps - 1}} {
					for i, f := range state {
						copy(f, initial[i])
					}
					r.Workers = workers
					for _, n := range split {
						r.Run(n, dt)
					}
					requireBitwiseEqual(t, seqSW, parSW, fmt.Sprintf(
						"ranks=%d GOMAXPROCS=%d workers=%d runs=%v", ranks, procs, workers, split))
				}
			}
		}
	}
}

// stressHash is a deterministic (step, stage, rank) mixer for the scheduler
// stress test: the same runs perturb the same tasks on every execution.
func stressHash(step, stage, rank int) uint32 {
	h := uint32(step)*2654435761 ^ uint32(stage)*40503 ^ uint32(rank)*9176
	h ^= h >> 13
	h *= 2246822519
	h ^= h >> 16
	return h
}

// TestEpochSchedulerStress drives the epoch scheduler through 1000 steps
// with randomized per-stage sleeps injected into ~2% of (step, stage, rank)
// triples, forcing blocks steps apart and exercising every park/wake path —
// once with single-rank blocks (6 ranks, 4 workers) and once with several
// ranks per block (48 ranks, 2 workers: 16 blocks of 3). The testOnTask probe
// recomputes the rank-level dependency check immediately before every rank's
// task body, against the block commit counters: a single task observed with
// unmet dependencies would mean a stage read a neighbour slab before its
// commit, i.e. the coarsened graph dropped an edge of the un-coarsened one.
// The end state must still be bitwise identical to the sequential
// integration.
func TestEpochSchedulerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-step scheduler stress is a long test")
	}
	const steps = 1000
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []struct{ ne, ranks, workers int }{{2, 6, 4}, {4, 48, 2}} {
		t.Run(fmt.Sprintf("ne=%d/ranks=%d/workers=%d", c.ne, c.ranks, c.workers), func(t *testing.T) {
			seqSW, dt := w2Solver(t, c.ne, 3)
			for s := 0; s < steps; s++ {
				seqSW.Step(dt)
			}
			parSW, _ := w2Solver(t, c.ne, 3)
			r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), c.ranks), c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers = c.workers
			var violations, tasks atomic.Int64
			r.testOnTask = func(rk int32, pos int64, depsMet bool) {
				tasks.Add(1)
				if !depsMet {
					violations.Add(1)
				}
			}
			hooks := &StepHooks{BeforeRankStage: func(step, stage, rank int) {
				if h := stressHash(step, stage, rank); h%50 == 0 {
					time.Sleep(time.Duration(h%5+1) * 20 * time.Microsecond)
				}
			}}
			if _, err := r.RunCtx(context.Background(), steps, dt, hooks); err != nil {
				t.Fatal(err)
			}

			if v := violations.Load(); v != 0 {
				t.Errorf("%d tasks ran with unmet dependencies", v)
			}
			if want := int64(c.ranks) * (steps*8 + 1); tasks.Load() != want {
				t.Errorf("probe saw %d tasks, want %d", tasks.Load(), want)
			}
			requireBitwiseEqual(t, seqSW, parSW, "epoch scheduler stress")
		})
	}
}

// TestBusyTimeExcludesWait locks the BusyTime contract: time a worker spends
// parked waiting for a dependency to commit is metered into
// seam_epoch_wait_ns, never into any rank's BusyTime. A stalled rank 0
// (sleeping hook, outside the busy span) forces its neighbours to wait for
// most of the wall time; their busy meters must stay small while the wait
// histogram fills.
func TestBusyTimeExcludesWait(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	sw, dt := w2Solver(t, 2, 3)
	const ranks, steps = 2, 5
	const stall = 2 * time.Millisecond
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = 2
	reg := obs.NewRegistry()
	r.Instrument(reg, nil)
	hooks := &StepHooks{BeforeRankStage: func(step, stage, rank int) {
		if rank == 0 {
			time.Sleep(stall)
		}
	}}
	start := time.Now()
	if _, err := r.RunCtx(context.Background(), steps, dt, hooks); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	// The run spends at least steps*4 stalls of wall time; rank 1 computes
	// for only a tiny fraction of it, and rank 0's own sleeps run before its
	// busy span. Neither may absorb the waiting.
	if minWall := steps * 4 * stall; wall < minWall {
		t.Fatalf("wall %v < %v: the stall hook did not serialize the run", wall, minWall)
	}
	for rk := 0; rk < ranks; rk++ {
		if r.BusyTime[rk] > wall/2 {
			t.Errorf("rank %d busy %v is most of wall %v: busy time absorbed wait or stall",
				rk, r.BusyTime[rk], wall)
		}
	}
	h := reg.Histogram("seam_epoch_wait_ns")
	if h.Count() == 0 {
		t.Error("no epoch-wait samples recorded despite a stalled dependency")
	}
	if h.Sum() <= 0 {
		t.Errorf("epoch-wait sum = %d, want > 0", h.Sum())
	}
}
