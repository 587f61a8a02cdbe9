package seam

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/par"
)

// Runner executes the shallow-water model with the spectral elements
// distributed over ranks according to a partition, mimicking SEAM's MPI
// parallelisation in-process. Shared GLL nodes are averaged by a unique
// owner rank, and the bytes that would cross rank boundaries on a
// distributed machine are tallied per rank, which is exactly the
// "communication volume for a single processor" (spcv) of the paper.
//
// Scheduling: each rank's run is a fixed sequence of tasks — for every step
// and RK stage a "phase A" task (stage prologue + tendency evaluation of the
// rank's elements) and a "phase B" task (DSS assembly of the shared nodes the
// rank owns), plus one epilogue task committing the final step. Instead of
// fencing all ranks at global barriers between phases, the runner schedules
// by dependency, and the unit it schedules and runs is a block: a run of
// consecutive rank ids — curve-contiguous, hence a compact patch, for an SFC
// assignment — cut so blocks hold near-equal element counts, blocksPerWorker
// per worker (one block when there is one worker). A block's next task — that
// phase of all its ranks as one kernel call over the block's elements, or one
// DSS sweep over the nodes its ranks own — launches as soon as the specific
// neighbour blocks it exchanges DSS-plan nodes with have committed their side
// of the exchange (see dfExec for the epoch protocol), so synchronisation is
// paid per block boundary, not per rank. With one worker there is one block
// with no dependencies, and the same loop runs inline on the calling
// goroutine in exactly ShallowWater.Step's order.
//
// The results remain bitwise identical to sequential ShallowWater.Step at
// any rank, worker and block count: every path runs the same batched kernels
// (stageElems, finishElems, applyNodeFlat) and elements inside a stage, like
// nodes inside one DSS application, are independent, so only the order
// between them differs; the dependency protocol admits exactly the
// inter-block orderings in which every read of a neighbour's slab observes
// the same committed values as the sequential schedule.
type Runner struct {
	SW     *ShallowWater
	Assign []int32 // element -> rank
	NRanks int

	// Workers overrides the number of worker goroutines used by Run when
	// positive; the default is min(NRanks, GOMAXPROCS).
	Workers int

	elemsOf [][]int32 // rank -> owned elements
	// sentPerApply[r] is the number of bytes rank r sends in one DSS
	// application of one field.
	sentPerApply []int64

	// Dependency graph of the epoch scheduler, derived from the DSS exchange
	// plan in NewRunner. depsA[m] lists the ranks whose phase-B commit rank
	// m's phase-A tasks wait on: the owners of shared nodes with a member
	// point among m's elements (they write the averaged tendencies m's next
	// stage reads). depsB[o] lists the ranks whose phase-A commit rank o's
	// phase-B tasks wait on: the member ranks of the nodes o owns (they
	// write the tendencies o assembles). revDeps is the reverse union — the
	// ranks to re-examine after one of rk's tasks commits. Self-edges are
	// excluded: a rank's own tasks are ordered by its task sequence. The
	// scheduler runs on their projection onto blocks (plan).
	depsA, depsB, revDeps [][]int32
	plan                  *blockPlan // of the most recent run's worker count

	// BusyTime holds per-rank compute time of the most recent Run call only:
	// Run resets it on entry, so busy/wall efficiency ratios are
	// well-defined even after warm-up runs. Sum across calls yourself if you
	// need a cumulative figure. A rank's figure is apportioned from its
	// block-task spans by element count (chargeSpan).
	//
	// Contract: busy time excludes scheduler wait time. Every span is
	// measured around a block-task body only (prologue+RHS, DSS assembly, or
	// the step epilogue), after the ranks' hooks; the time a worker spends
	// parked waiting for a dependency to commit happens between tasks,
	// outside every span, and is metered separately into the
	// seam_epoch_wait_ns histogram. There is no global barrier under the
	// dependency-driven scheduler, so this is the only wait there is.
	// TestBusyTimeExcludesWait locks the contract.
	//
	// BusyTime is owned by the worker goroutines while a run is in
	// flight: reading it mid-run is a data race and can observe torn,
	// mid-stage values. Concurrent observers must read the
	// seam_rank_busy_ns gauges of an instrumented runner instead, which
	// are set at step boundaries.
	BusyTime []time.Duration

	// testOnTask, when non-nil, is invoked by the scheduler immediately
	// before each rank's task body, with the rank, its position in the task
	// sequence, and the rank-level dependency check recomputed at call time
	// (dfExec.rankReady) — the probe the epoch-counter stress test uses to
	// prove the block graph loses no dependency of the rank graph.
	// Test-only; must not mutate runner state.
	testOnTask func(rk int32, pos int64, depsMet bool)

	// runnerObsState carries the observability attachment (Instrument).
	runnerObsState
}

// NewRunner distributes the elements of sw over nranks ranks following
// assign (element id -> rank). Malformed configurations are rejected up
// front with typed errors: AssignLengthError when assign does not cover the
// grid, RankRangeError when any element names a rank outside [0, nranks),
// and EmptyRankError when a rank ends up owning no elements.
func NewRunner(sw *ShallowWater, assign []int32, nranks int) (*Runner, error) {
	k := sw.G.NumElems()
	if len(assign) != k {
		return nil, &AssignLengthError{Got: len(assign), Want: k}
	}
	if nranks < 1 {
		return nil, fmt.Errorf("seam: nranks must be >= 1, got %d", nranks)
	}
	r := &Runner{
		SW: sw, Assign: assign, NRanks: nranks,
		elemsOf:      make([][]int32, nranks),
		sentPerApply: make([]int64, nranks),
		BusyTime:     make([]time.Duration, nranks),
	}
	for e, rk := range assign {
		if rk < 0 || int(rk) >= nranks {
			return nil, &RankRangeError{Elem: e, Rank: rk, NRanks: nranks}
		}
		r.elemsOf[rk] = append(r.elemsOf[rk], int32(e))
	}
	var empty []int
	for rk, es := range r.elemsOf {
		if len(es) == 0 {
			empty = append(empty, rk)
		}
	}
	if len(empty) > 0 {
		return nil, &EmptyRankError{Ranks: empty, NRanks: nranks}
	}
	npts := sw.G.PointsPerElem()
	depsA, depsB, rev := make([][]int32, nranks), make([][]int32, nranks), make([][]int32, nranks)
	dss := sw.Dss
	for s := range dss.den {
		members := dss.pts[dss.ptr[s]:dss.ptr[s+1]]
		owner := assign[int(members[0])/npts]
		for _, p := range members {
			member := assign[int(p)/npts]
			if member != owner {
				// The member sends its contribution to the owner and the
				// owner sends the assembled value back: 8 bytes each way.
				r.sentPerApply[member] += 8
				r.sentPerApply[owner] += 8
				// The same exchange is the dependency edge pair of the
				// epoch scheduler.
				depsB[owner] = append(depsB[owner], member)
				depsA[member] = append(depsA[member], owner)
			}
		}
	}
	for _, deps := range [][][]int32{depsA, depsB} {
		for m, ns := range deps {
			for _, n := range ns {
				rev[n] = append(rev[n], int32(m))
			}
		}
	}
	r.depsA, r.depsB, r.revDeps = sortUnique(depsA), sortUnique(depsB), sortUnique(rev)
	// Precompute the per-step meter increments so step-boundary
	// publication is pure atomic arithmetic.
	r.flopsPerStep = 4*rhsFlopsShallowWater(k, sw.G.Np) + int64(k)*int64(npts)*3*4*4
	for _, b := range r.sentPerApply {
		r.totalBytesPerStep += b * 4 * 3
	}
	return r, nil
}

// sortUnique replaces every list by a right-sized sorted copy without
// duplicates (the appended-to originals carry spare capacity worth keeping
// out of the live heap).
func sortUnique(lists [][]int32) [][]int32 {
	for i, l := range lists {
		slices.Sort(l)
		lists[i] = slices.Clone(slices.Compact(l))
	}
	return lists
}

// NumOwned returns the number of elements owned by each rank.
func (r *Runner) NumOwned() []int {
	out := make([]int, r.NRanks)
	for rk, es := range r.elemsOf {
		out[rk] = len(es)
	}
	return out
}

// Owned returns the element ids owned by rank rk, in ascending order. The
// slice is owned by the runner; callers must not modify it. Fault injectors
// use it to target a specific rank's state deterministically.
func (r *Runner) Owned(rk int) []int32 { return r.elemsOf[rk] }

// BytesPerStep returns, per rank, the communication bytes of one full RK4
// time step: 4 stages x 3 prognostic fields x one DSS application.
func (r *Runner) BytesPerStep() []int64 {
	out := make([]int64, r.NRanks)
	for rk, b := range r.sentPerApply {
		out[rk] = b * 4 * 3
	}
	return out
}

// Run advances the model by the given number of RK4 steps of size dt with
// the ranks executed concurrently by a capped worker pool, and returns the
// wall-clock time of the parallel section. The result is bitwise identical
// to the same number of sequential ShallowWater.Step calls.
//
// BusyTime is reset at the start of every call and, on return, holds each
// rank's compute time for this call only.
func (r *Runner) Run(steps int, dt float64) time.Duration {
	d, _ := r.runSteps(nil, steps, dt)
	return d
}

// RunCtx is Run with cancellation, fault-injection hooks, and worker panic
// recovery — the entry point of the run supervisor (see
// internal/seam/supervise). It advances the model by steps RK4 steps of size dt
// and is bitwise identical to Run when it completes without error.
//
//   - If ctx is cancelled or its deadline expires mid-run, the parallel
//     section is aborted and a *TimeoutError (unwrapping to ctx.Err()) is
//     returned, listing the ranks whose work was in flight — under a rank
//     stall, the stalled rank is among them.
//   - If a worker goroutine panics while executing a rank (including inside
//     an injected hook), the panic is recovered into a *RankPanicError with
//     step/stage/rank attribution and the remaining workers are released.
//   - hooks, when non-nil, is invoked by the owning worker at defined points
//     of the schedule; see StepHooks.
//
// On a non-nil error the prognostic state may be torn across ranks (some
// ranks committed further than others); callers are expected to roll back
// to a checkpoint before resuming.
func (r *Runner) RunCtx(ctx context.Context, steps int, dt float64, hooks *StepHooks) (time.Duration, error) {
	ctl := &runControl{ctx: ctx, hooks: hooks}
	if err := ctx.Err(); err != nil {
		return 0, &TimeoutError{Cause: err}
	}
	return r.runSteps(ctl, steps, dt)
}

// StepHooks are optional callbacks threaded through RunCtx for fault
// injection and instrumentation. All callbacks run on the worker goroutine
// that owns the rank's block at that moment, so they may freely touch the
// rank's own element blocks (and nothing else) without racing the other ranks.
type StepHooks struct {
	// BeforeRankStage runs before the prologue + RHS of the given RK stage
	// (0..3) of the given step (0-based within this call) reaches rank; a
	// block calls its ranks' hooks in rank order, then runs the stage for all
	// of them. A panic raised here is attributed to the rank; sleeping here
	// simulates a stalled rank.
	BeforeRankStage func(step, stage, rank int)
}

// runControl carries the cancellation/recovery state of one RunCtx call.
// A nil *runControl (the plain Run path) compiles to a handful of
// predictable nil checks in the hot loops.
type runControl struct {
	ctx   context.Context
	hooks *StepHooks

	stop    atomic.Bool
	errMu   sync.Mutex
	err     error
	working []atomic.Int64 // per-worker packed RankPos, -1 when idle
}

// fail records the first error and flags the run as stopping. It returns
// true for the caller that won the race (and should release the scheduler).
func (c *runControl) fail(err error) bool {
	c.errMu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	c.errMu.Unlock()
	c.stop.Store(true)
	return first
}

func (c *runControl) firstErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// packPos encodes (step, stage, rank) into one int64: rank < 2^24 (K is at
// most a few thousand), stage < 4, step < 2^32.
func packPos(step, stage, rank int) int64 {
	return int64(step)<<28 | int64(stage)<<24 | int64(rank)
}

func unpackPos(p int64) RankPos {
	return RankPos{Rank: int(p & 0xffffff), Stage: int(p >> 24 & 0xf), Step: int(p >> 28)}
}

// inFlight snapshots the ranks currently claimed by workers, sorted by rank.
func (c *runControl) inFlight() []RankPos {
	var out []RankPos
	for i := range c.working {
		if p := c.working[i].Load(); p >= 0 {
			out = append(out, unpackPos(p))
		}
	}
	sortRankPos(out)
	return out
}

// Task positions. A block's run is the fixed sequence
//
//	p = step*8 + stage*2 + phase   (phase A = 0, phase B = 1)
//
// for step in [0, steps) and stage in [0, 4), plus the epilogue at
// p = steps*8. commit[b] counts block b's completed tasks, so it IS the
// block's next task position.
func posStep(p int64) int  { return int(p >> 3) }
func posStage(p int64) int { return int(p>>1) & 3 }

// blocksPerWorker is the one constant of the block-count rule: nw > 1
// workers schedule min(NRanks, blocksPerWorker*nw) blocks — enough that a
// stalled worker leaves the others work and the last block of a step runs
// alone only briefly, few enough that commits, wake-ups and dependency scans
// are noise next to the kernels. {4, 8, 12} measured alike at 2 workers (see
// BENCH_seam.json's newest entry).
const blocksPerWorker = 8

// blockPlan is what the scheduler needs for one (worker, block) count, built
// once and kept on the Runner: the blocks, their work lists, the dependency
// lists projected onto them, and the storage every run reuses.
type blockPlan struct {
	// Block b holds ranks [start[b], start[b+1]), cut so blocks hold
	// near-equal element counts; blockOf inverts it.
	start, blockOf []int32
	// elems[b] lists the elements of block b's ranks and nodes[b] the DSS
	// plan's shared nodes they own (the rank of a node's first member owns
	// it), both ascending — the plan order, for nodes.
	elems, nodes [][]int32
	// Runner.depsA/depsB/revDeps with every rank replaced by its block,
	// self-edges dropped: an edge inside one block is met by program order.
	depsA, depsB, revDeps [][]int32
	commit                []atomic.Int64 // per block: tasks completed (its epoch)
	state                 []atomic.Int32 // per block: 0 idle, 1 enqueued or running
	scr                   []*rhsScratch  // per worker
}

// blockPlan returns the plan for nw workers, rebuilding it only when the
// worker count changed since the last run.
func (r *Runner) blockPlan(nw int) *blockPlan {
	nb := 1
	if nw > 1 {
		nb = min(r.NRanks, blocksPerWorker*nw)
	}
	if pl := r.plan; pl != nil && len(pl.commit) == nb && len(pl.scr) == nw {
		return pl
	}
	pl := &blockPlan{
		start:   make([]int32, 1, nb+1),
		blockOf: make([]int32, r.NRanks),
		commit:  make([]atomic.Int64, nb),
		state:   make([]atomic.Int32, nb),
		scr:     make([]*rhsScratch, nw),
	}
	for w := range pl.scr {
		pl.scr[w] = newRHSScratch(r.SW.G.PointsPerElem())
	}
	// Close block b at the first rank that brings the running element count
	// to b+1 shares of the total, or earlier when every remaining rank is
	// needed to keep the later blocks non-empty.
	total, cum := len(r.Assign), 0
	for rk := 0; rk < r.NRanks; rk++ {
		b := len(pl.start) - 1
		pl.blockOf[rk] = int32(b)
		cum += len(r.elemsOf[rk])
		if b < nb-1 && (cum*nb >= (b+1)*total || r.NRanks-rk-1 == nb-b-1) {
			pl.start = append(pl.start, int32(rk+1))
		}
	}
	pl.start = append(pl.start, int32(r.NRanks))
	pl.elems, pl.nodes = make([][]int32, nb), make([][]int32, nb)
	for e, rk := range r.Assign {
		b := pl.blockOf[rk]
		pl.elems[b] = append(pl.elems[b], int32(e))
	}
	dss, npts := r.SW.Dss, r.SW.G.PointsPerElem()
	for s := range dss.den {
		b := pl.blockOf[r.Assign[int(dss.pts[dss.ptr[s]])/npts]]
		pl.nodes[b] = append(pl.nodes[b], int32(s))
	}
	project := func(rankDeps [][]int32) [][]int32 {
		out := make([][]int32, nb)
		for rk, deps := range rankDeps {
			b := pl.blockOf[rk]
			for _, n := range deps {
				if bn := pl.blockOf[n]; bn != b {
					out[b] = append(out[b], bn)
				}
			}
		}
		return sortUnique(out)
	}
	pl.depsA, pl.depsB, pl.revDeps = project(r.depsA), project(r.depsB), project(r.revDeps)
	r.plan = pl
	return pl
}

// runSteps is the shared body of Run and RunCtx; ctl is nil on the plain
// Run path.
func (r *Runner) runSteps(ctl *runControl, steps int, dt float64) (time.Duration, error) {
	for i := range r.BusyTime {
		r.BusyTime[i] = 0
	}
	if steps <= 0 {
		return 0, nil
	}

	nw := r.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	nw = min(nw, r.NRanks)
	if ctl != nil {
		ctl.working = make([]atomic.Int64, nw)
		for i := range ctl.working {
			ctl.working[i].Store(-1)
		}
	}

	start := time.Now()
	err := r.runDataflow(ctl, nw, steps, dt)
	elapsed := time.Since(start)
	// The epilogue added busy time after the last step boundary; publish
	// the completed figures (single-threaded here).
	r.publishBusy()
	if err != nil {
		// The parallel section was aborted part-way: the prognostic slabs
		// may be torn across ranks and the flop meter would lie, so skip it
		// and surface the typed cause.
		return elapsed, err
	}
	// Meter the work exactly as the sequential Step does (the runner
	// performs the same arithmetic, just distributed).
	r.SW.Flops += int64(steps) * r.flopsPerStep
	return elapsed, nil
}

// dfExec is the state of one epoch-scheduled run. The scheduled unit is the
// block (see blockPlan): a run of consecutive ranks whose task one worker
// executes as one body, with no synchronisation inside it.
//
// Epoch protocol. commit[b] is the number of tasks block b has completed —
// its epoch. A task at position p is ready iff every dependency block n
// (depsA for phase A and the epilogue, depsB for phase B) has commit[n] >= p,
// i.e. has finished its own task at position p-1. Stores to commit are the
// release side and loads in ready() the acquire side of the protocol (Go's
// sync/atomic is sequentially consistent, which is stronger): a worker that
// observes commit[n] >= p also observes every slab write of n's first p
// tasks, so no stage ever reads a neighbour slab before its commit. The
// block graph is the rank graph with ranks merged, so every rank-level
// dependency is either such a block edge or lies inside one block, where the
// block's own task order satisfies it; the elements of one stage, like the
// nodes of one DSS application, never depend on each other, so their order
// inside a block-task is free.
//
// Wakeups. state[b] is 0 (idle) or 1 (enqueued or running); at most one
// queue entry or executing worker per block exists at any time. Whoever
// commits a task re-examines the reverse dependencies: tryEnqueue loads the
// dependant's epoch, checks readiness, and CASes state 0->1 before pushing.
// A worker that finds its block's next task not ready releases it Dekker
// style — store state 0, re-check readiness, re-enqueue on success — so the
// symmetric race (neighbour commits between the worker's last check and its
// release; worker parks between the neighbour's failed CAS and the store)
// cannot lose the wakeup: under sequential consistency one of the two
// re-checks must observe the other side's store. Stale epoch reads can still
// enqueue a block spuriously, so the popping worker revalidates readiness
// before executing.
//
// Deadlock freedom. Let pmin be the minimum epoch over all blocks. Any block
// at pmin is ready (all its dependencies have epoch >= pmin), so a runnable
// task always exists until the run completes; the wakeup argument above
// guarantees some worker learns of it. With one block (one worker) the
// protocol degenerates to "run every task in phase order on the caller".
type dfExec struct {
	r   *Runner
	ctl *runControl
	*blockPlan
	steps      int
	dt         float64
	lastPos    int64          // steps*8, the epilogue position
	blocksLeft []atomic.Int32 // per step: blocks that have not committed it
	done       atomic.Int64   // block-tasks completed, of nblocks*(lastPos+1)
	q          *par.WakeQueue
}

func (d *dfExec) ready(b int32, p int64) bool {
	deps := d.depsA[b]
	if p&1 == 1 {
		deps = d.depsB[b]
	}
	for _, n := range deps {
		if d.commit[n].Load() < p {
			return false
		}
	}
	return true
}

// tryEnqueue wakes block b if its next task is ready and the block is not
// already enqueued or running.
func (d *dfExec) tryEnqueue(b int32) {
	p := d.commit[b].Load()
	if p > d.lastPos || !d.ready(b, p) {
		return
	}
	if d.state[b].CompareAndSwap(0, 1) {
		d.q.Push(b)
	}
}

// release marks block b idle at position p and re-checks readiness (the
// Dekker re-check described on dfExec): a dependency may have committed
// concurrently and lost its tryEnqueue CAS against our still-held state.
func (d *dfExec) release(b int32, p int64) {
	d.state[b].Store(0)
	if d.ready(b, p) && d.state[b].CompareAndSwap(0, 1) {
		d.q.Push(b)
	}
}

// rankReady recomputes, for the testOnTask probe, whether rank rk of block b
// may run its task at position p, from the un-coarsened rank-level lists:
// a dependency in another block must sit behind that block's commit counter,
// one in the same block is met by program order.
func (d *dfExec) rankReady(rk, b int32, p int64) bool {
	deps := d.r.depsA[rk]
	if p&1 == 1 {
		deps = d.r.depsB[rk]
	}
	for _, n := range deps {
		if bn := d.blockOf[n]; bn != b && d.commit[bn].Load() < p {
			return false
		}
	}
	return true
}

// worker is one worker's private state: its RHS scratch and its local
// histogram batches.
type worker struct {
	scr    *rhsScratch
	stageB [4]*obs.HistogramBatch
	dssB   *obs.HistogramBatch
}

func (ws *worker) flush() {
	for _, b := range ws.stageB {
		b.Flush()
	}
	ws.dssB.Flush()
}

// runTask executes block b's task at position p on worker w: rank by rank
// the stop check, the in-flight record, the probe and (phase A) the hook,
// then one body for the whole block. Phase A is the previous step's epilogue
// when entering stage 0 and the fused stage prologue + RHS over the block's
// elements; phase B one vector and one scalar DSS sweep over the block's
// nodes; the epilogue the final step's commit. Only the body is timed, and
// chargeSpan apportions its span to the ranks. It returns false, leaving the
// task uncommitted, if the run was stopped part-way.
func (d *dfExec) runTask(w int, b int32, p int64, ws *worker) bool {
	r, ctl, sw := d.r, d.ctl, d.r.SW
	s, st, final := posStep(p), posStage(p), p == d.lastPos
	if final {
		s, st = d.steps-1, 3
	}
	var hook func(step, stage, rank int)
	if ctl != nil && ctl.hooks != nil && p&1 == 0 && !final {
		hook = ctl.hooks.BeforeRankStage
	}
	for rk := d.start[b]; rk < d.start[b+1]; rk++ {
		if ctl != nil {
			if ctl.stop.Load() {
				return false
			}
			ctl.working[w].Store(packPos(s, st, int(rk)))
		}
		if r.testOnTask != nil {
			r.testOnTask(rk, p, d.rankReady(rk, b, p))
		}
		if hook != nil {
			hook(s, st, int(rk))
		}
	}
	elems, hist := d.elems[b], ws.dssB
	ev := obs.Event{Kind: obs.EvDSS, Step: int32(s), Stage: int8(st)}
	t0 := time.Now()
	switch {
	case final:
		sw.finishElems(elems, d.dt)
	case p&1 == 0:
		if st == 0 && s > 0 {
			sw.finishElems(elems, d.dt)
		}
		sw.stageElems(elems, st, d.dt, ws.scr)
		hist, ev.Kind = ws.stageB[st], obs.EvStage
	default:
		for _, n := range d.nodes[b] {
			sw.Dss.applyVectorNodeFlat(sw.k1v1F, sw.k1v2F, n)
		}
		for _, n := range d.nodes[b] {
			sw.Dss.applyNodeFlat(sw.k1pF, n)
		}
	}
	r.chargeSpan(d.start[b], d.start[b+1], len(elems), time.Since(t0), final, hist, ev)
	if ctl != nil {
		ctl.working[w].Store(-1)
	}
	return true
}

// runWorker drains ready blocks from the wake queue, running each popped
// block's tasks consecutively for as long as they stay ready (the common
// case: a block's phase B usually unblocks its own next phase A), and parks
// when no block is ready. Parked time is the epoch wait: it is recorded
// against the task that ends the wait, with real step/stage attribution and
// the first rank of the block that ended it.
func (d *dfExec) runWorker(w int) {
	r := d.r
	ctl := d.ctl
	if ctl != nil {
		defer func() {
			if v := recover(); v != nil {
				cur := unpackPos(ctl.working[w].Load())
				if ctl.fail(&RankPanicError{Step: cur.Step, Stage: cur.Stage, Rank: cur.Rank, Value: v}) {
					d.q.Close()
				}
				ctl.working[w].Store(-1)
			}
		}()
	}
	ws := &worker{scr: d.scr[w]}
	ws.stageB, ws.dssB = r.metrics.workerBatches()
	defer ws.flush()
	measure := r.obsActive()
	total := int64(len(d.commit)) * (d.lastPos + 1)
	for {
		// Fold local histogram spans before (possibly) parking so scrapes
		// during an idle spell see this worker's completed spans.
		ws.flush()
		b, wait, ok := d.q.Pop(measure)
		if !ok {
			return
		}
		p := d.commit[b].Load()
		if measure && wait > 0 {
			r.metrics.observeWait(wait)
			if tr := r.trace; tr != nil && !tr.Deterministic {
				// Waits are schedule-shaped (they depend on worker count and
				// timing), so they are omitted from deterministic traces.
				step, stage := posStep(p), posStage(p)
				if p >= d.lastPos {
					step, stage = d.steps-1, 3
				}
				tr.Record(obs.Event{Kind: obs.EvWait, Step: int32(step), Stage: int8(stage), Rank: d.start[b], Dur: wait.Nanoseconds(), Arg: int64(w)})
			}
		}
		// Revalidate: a stale epoch read in tryEnqueue can wake a block
		// whose dependencies have not actually committed yet.
		if !d.ready(b, p) {
			d.release(b, p)
			continue
		}
		for {
			if !d.runTask(w, b, p, ws) {
				return
			}
			d.commit[b].Store(p + 1)
			if p&7 == 7 {
				// Block b finished step p>>3: publish its ranks' meters and,
				// when it is the last block through, the step-shared ones.
				for rk := d.start[b]; rk < d.start[b+1]; rk++ {
					r.publishRank(rk)
				}
				if s := int(p >> 3); d.blocksLeft[s].Add(-1) == 0 {
					ws.flush()
					r.publishStepShared(s)
				}
			}
			if d.done.Add(1) == total {
				d.q.Close()
				return
			}
			for _, n := range d.revDeps[b] {
				d.tryEnqueue(n)
			}
			p++
			if p > d.lastPos {
				// Block finished; state stays 1 so it is never re-enqueued.
				break
			}
			if !d.ready(b, p) {
				d.release(b, p)
				break
			}
		}
	}
}

// runDataflow executes the run under the epoch scheduler with nw workers:
// nw-1 goroutines plus the calling goroutine, which runs worker 0's loop
// inline — so one worker means no goroutine, no parking and one block, i.e.
// every task in phase order on the caller.
func (r *Runner) runDataflow(ctl *runControl, nw, steps int, dt float64) error {
	d := &dfExec{
		r: r, ctl: ctl, blockPlan: r.blockPlan(nw), steps: steps, dt: dt,
		lastPos:    int64(steps) * 8,
		blocksLeft: make([]atomic.Int32, steps),
	}
	nb := len(d.commit)
	d.q = par.NewWakeQueue(nb)
	for s := range d.blocksLeft {
		d.blocksLeft[s].Store(int32(nb))
	}
	// Seed: every block's position-0 task (phase A of step 0) has no
	// uncommitted dependencies, so all blocks start enqueued.
	for b := 0; b < nb; b++ {
		d.commit[b].Store(0)
		d.state[b].Store(1)
		d.q.Push(int32(b))
	}
	// Cancellation watchdog: parked workers cannot poll the context, so a
	// dedicated goroutine converts ctx expiry into a queue close, which
	// releases every parked worker; running workers notice the stop flag before
	// their next rank's hook (a stalled hook keeps its rank until then).
	if ctl != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctl.ctx.Done():
				ctl.fail(&TimeoutError{InFlight: ctl.inFlight(), Cause: ctl.ctx.Err()})
				d.q.Close()
			case <-watchDone:
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.runWorker(w)
		}(w)
	}
	d.runWorker(0)
	wg.Wait()
	if ctl != nil {
		return ctl.firstErr()
	}
	return nil
}
