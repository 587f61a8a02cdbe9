package seam

import (
	"strconv"
	"time"

	"sfccube/internal/obs"
)

// runnerMetrics holds the pre-resolved metric handles of an instrumented
// Runner. All handles are registered once in Instrument, so the hot loops
// only perform atomic adds. A nil *runnerMetrics is the disabled path:
// every method no-ops after one predictable branch.
type runnerMetrics struct {
	steps    *obs.Counter      // seam_steps_total
	flops    *obs.Counter      // seam_flops_total
	dssBytes *obs.Counter      // seam_dss_bytes_total
	stageNs  [4]*obs.Histogram // seam_stage_compute_ns{stage}
	dssNs    *obs.Histogram    // seam_dss_assembly_ns
	wait     *obs.Histogram    // seam_epoch_wait_ns
	rankBusy []*obs.Gauge      // seam_rank_busy_ns{rank}
}

// workerBatches returns one worker's local histogram batches for the four
// stage-compute histograms and the DSS-assembly histogram. Batching keeps
// the hot loop free of contended atomics: 384 ranks x 4 stages x 2 phases
// of Observes per step collapse into a handful of atomic adds when each
// worker flushes before parking and at step completion (see
// dfExec.runWorker). Nil-safe: on a nil receiver every returned batch is nil
// and its methods no-op.
func (m *runnerMetrics) workerBatches() (stage [4]*obs.HistogramBatch, dss *obs.HistogramBatch) {
	if m == nil {
		return stage, nil
	}
	for i := range stage {
		stage[i] = m.stageNs[i].Batch()
	}
	return stage, m.dssNs.Batch()
}

// observeWait records one worker's epoch wait: the time it spent parked on
// the wake queue before the popped block's dependencies let it run. With one
// worker there is one block, no waits, and nothing is recorded.
func (m *runnerMetrics) observeWait(d time.Duration) {
	if m == nil {
		return
	}
	m.wait.Observe(d.Nanoseconds())
}

// Instrument attaches a metrics registry and/or a run trace to the
// runner. Either may be nil; a fully nil instrumentation restores the
// uninstrumented fast path (benchmarked at <1% overhead on RunnerStep —
// the hot loops see only nil checks). Call before Run/RunCtx, never
// concurrently with one.
//
// Registered metrics (see DESIGN.md "Observability" for the inventory):
//
//	seam_steps_total              counter  completed RK4 steps
//	seam_flops_total              counter  floating-point ops executed
//	seam_dss_bytes_total          counter  bytes crossing rank boundaries
//	seam_stage_compute_ns{stage}  histogram per-rank compute span per stage,
//	                                       apportioned from the block span
//	seam_dss_assembly_ns          histogram per-rank DSS assembly span, ditto
//	seam_epoch_wait_ns            histogram per-worker wait for block
//	                                       dependencies to commit
//	seam_rank_busy_ns{rank}       gauge    per-rank busy ns at the last
//	                                       completed step boundary
func (r *Runner) Instrument(reg *obs.Registry, tr *obs.RunTrace) {
	r.trace = tr
	if reg == nil {
		r.metrics = nil
		return
	}
	reg.Help("seam_steps_total", "completed RK4 steps of the parallel runner")
	reg.Help("seam_flops_total", "floating-point operations executed by the runner")
	reg.Help("seam_dss_bytes_total", "bytes that would cross rank boundaries in DSS exchanges")
	reg.Help("seam_stage_compute_ns", "per-rank compute time of one RK stage, nanoseconds")
	reg.Help("seam_dss_assembly_ns", "per-rank DSS assembly time of one RK stage, nanoseconds")
	reg.Help("seam_epoch_wait_ns", "per-worker wait for block dependencies to commit, nanoseconds")
	reg.Help("seam_rank_busy_ns", "per-rank busy time at the last completed step boundary, nanoseconds")
	m := &runnerMetrics{
		steps:    reg.Counter("seam_steps_total"),
		flops:    reg.Counter("seam_flops_total"),
		dssBytes: reg.Counter("seam_dss_bytes_total"),
		dssNs:    reg.Histogram("seam_dss_assembly_ns"),
		wait:     reg.Histogram("seam_epoch_wait_ns"),
		rankBusy: make([]*obs.Gauge, r.NRanks),
	}
	for st := 0; st < 4; st++ {
		m.stageNs[st] = reg.Histogram("seam_stage_compute_ns", "stage", strconv.Itoa(st))
	}
	for rk := 0; rk < r.NRanks; rk++ {
		m.rankBusy[rk] = reg.Gauge("seam_rank_busy_ns", "rank", strconv.Itoa(rk))
	}
	r.metrics = m
}

// publishBusy sets every rank's busy gauge from BusyTime. It must only run
// while no worker is mutating BusyTime: after every worker has joined.
func (r *Runner) publishBusy() {
	for rk := range r.BusyTime {
		r.publishRank(int32(rk))
	}
}

// publishRank sets rank rk's busy gauge, when instrumented. It runs on
// whichever worker commits the last task of a step for rk's block: every
// BusyTime[rk] write of the step happened before that commit (a block's tasks
// are serialized by the scheduler), so the gauge never holds a torn or
// mid-stage value and is safe to scrape during a run.
func (r *Runner) publishRank(rk int32) {
	if m := r.metrics; m != nil {
		m.rankBusy[rk].Set(int64(r.BusyTime[rk]))
	}
}

// publishStepShared publishes the step-scoped shared meters, exactly once
// per step, by whichever worker commits the step's last block-task. Steps
// complete in order — a block cannot commit step s before every dependency
// committed step s-1 around it, and the per-step countdown only reaches
// zero after all blocks pass — so seam_steps_total is monotone and EvStep
// events appear in step order.
func (r *Runner) publishStepShared(stepInRun int) {
	if m := r.metrics; m != nil {
		m.steps.Inc()
		m.dssBytes.Add(r.totalBytesPerStep)
		m.flops.Add(r.flopsPerStep)
	}
	if r.trace != nil {
		r.trace.Record(obs.Event{Kind: obs.EvStep, Step: int32(stepInRun), Stage: -1, Rank: -1, Arg: r.flopsPerStep})
	}
}

// chargeSpan books the span of one block-task body to the block's ranks
// [lo, hi), which hold total elements. Each rank's BusyTime gets its step of
// the running total span*elements/total, rounded down: within 1 ns of its
// exact part span*own/total, and telescoping, so the last rank takes the
// rounding remainder and the block's shares sum to span exactly. Unless the
// task is the run's epilogue, each rank also gets one sample in hist and one
// trace event (ev, with the rank, the share and for EvDSS its bytes) of it.
func (r *Runner) chargeSpan(lo, hi int32, total int, span time.Duration, final bool, hist *obs.HistogramBatch, ev obs.Event) {
	var cum, booked time.Duration
	for rk := lo; rk < hi; rk++ {
		cum += time.Duration(len(r.elemsOf[rk]))
		share := span*cum/time.Duration(total) - booked
		booked += share
		r.BusyTime[rk] += share
		if final {
			continue
		}
		hist.Observe(int64(share))
		if r.trace != nil {
			ev.Rank, ev.Dur = rk, int64(share)
			if ev.Kind == obs.EvDSS {
				ev.Arg = r.sentPerApply[rk] * 3
			}
			r.trace.Record(ev)
		}
	}
}

// obsActive reports whether any per-span instrumentation is attached
// (used to skip wait measurement and trace stamping when disabled).
func (r *Runner) obsActive() bool { return r.metrics != nil || r.trace != nil }

// instrumentation state embedded in Runner (kept in this file so the
// scheduler in runner.go stays focused on the execution schedule).
type runnerObsState struct {
	metrics *runnerMetrics
	trace   *obs.RunTrace
	// flopsPerStep and totalBytesPerStep are precomputed in NewRunner so
	// the per-step publication is pure atomic arithmetic.
	flopsPerStep      int64
	totalBytesPerStep int64
}
