// Package supervise is the fault-tolerant run layer of the SEAM substrate.
// The paper's end-to-end metric is a long integration on up to 768
// processors — exactly the regime where real runs die mid-flight (rank
// loss, solver blowup, hung workers), and where SFC partitioning earns its
// keep a second time: re-partitioning the survivors after a rank failure is
// a single curve re-split (Borrell et al. 2020 motivate SFC partitioning
// precisely by this property), taken from the fallback chain of
// internal/resilience. Error texts and metric names keep that package's
// "resilience" prefix.
//
//   - Injector (inject.go): a seeded fault plan. Each Fault names a kind
//     (NaN corruption, rank death, stall, checkpoint corruption, partitioner
//     deadline overrun) and a step; unspecified targets (rank, corrupted
//     byte, stall length) are derived from one splitmix64 seed, so an entire
//     faulty run — faults, detections, recoveries — replays identically
//     from (seed, plan).
//
//   - Checkpoint/restart (checkpoint.go, store.go): versioned,
//     CRC-checksummed serialization of the prognostic slabs + step counter.
//     The prognostic slabs are the complete restart state (every other slab
//     is re-initialised each step), so restart is bitwise-exact: resuming a
//     killed run from its last checkpoint reproduces the uninterrupted
//     trajectory bit for bit. A Store keeps two rolling slots; a corrupt
//     newest checkpoint is detected by CRC and the previous one is used.
//
//   - Detection + graceful degradation (supervisor.go): the Supervisor
//     drives seam.Runner.RunCtx one step at a time, scanning the state for
//     NaN/Inf after every RK step (resilience.CheckFinite). A blowup
//     triggers rollback-to-checkpoint with dt halving and bounded retries;
//     a dead rank (recovered worker panic with rank attribution) triggers
//     an SFC re-partition of its elements among the survivors and a
//     rollback; a stalled rank trips the per-step watchdog deadline and is
//     retried from the checkpoint.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/resilience"
	"sfccube/internal/seam"
)

// EventKind labels one entry of the supervisor's event log.
type EventKind string

const (
	// EventResume: a run restarted from a stored checkpoint.
	EventResume EventKind = "resume"
	// EventCheckpoint: the state was checkpointed at this step.
	EventCheckpoint EventKind = "checkpoint"
	// EventCorruptSkipped: a corrupt checkpoint slot was detected (CRC or
	// structural) and the previous slot was used instead.
	EventCorruptSkipped EventKind = "corrupt-checkpoint-skipped"
	// EventNaNDetected: the per-step sentinel found a non-finite value.
	EventNaNDetected EventKind = "nan-detected"
	// EventRollback: the state was rolled back to a checkpoint.
	EventRollback EventKind = "rollback"
	// EventDtHalved: the timestep was halved after a blowup.
	EventDtHalved EventKind = "dt-halved"
	// EventRankDeath: a worker panic with a RankDeath value was recovered.
	EventRankDeath EventKind = "rank-death"
	// EventRepartition: the surviving ranks were re-partitioned.
	EventRepartition EventKind = "repartition"
	// EventStallTimeout: a step overran its deadline and was retried.
	EventStallTimeout EventKind = "stall-timeout"
	// EventPartitionFallback: a re-partition walked the fallback chain
	// past its first link.
	EventPartitionFallback EventKind = "partition-fallback"
)

// Event is one entry of the supervisor's log. Details are deliberately
// restricted to deterministic quantities (steps, ranks, strategy names,
// element indices, dt values) — never wall-clock times or scheduler-
// dependent observations — so two runs with the same injector seed produce
// byte-identical event logs.
type Event struct {
	Step   int
	Kind   EventKind
	Rank   int // -1 when no single rank is implicated
	Detail string
}

func (e Event) String() string {
	if e.Rank >= 0 {
		return fmt.Sprintf("step %d: %s (rank %d): %s", e.Step, e.Kind, e.Rank, e.Detail)
	}
	return fmt.Sprintf("step %d: %s: %s", e.Step, e.Kind, e.Detail)
}

const (
	// maxRollbacks is the total rollback budget of one Run; exceeding it
	// surfaces the triggering fault as an error.
	maxRollbacks = 4
	// maxDtHalvings bounds how many times a blowup may halve dt.
	maxDtHalvings = 2
)

// Policy sets the supervisor's checkpoint cadence and step watchdog.
type Policy struct {
	// CheckpointEvery is the checkpoint cadence in steps. Zero means 8;
	// negative disables periodic checkpoints (the initial and final ones
	// are still written).
	CheckpointEvery int
	// StepDeadline is the watchdog deadline per step (stall detection).
	// Zero disables the per-step watchdog (the run ctx still applies).
	StepDeadline time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 8
	}
	return p
}

// Report summarises a supervised run.
type Report struct {
	// StepsDone is the absolute step counter at exit.
	StepsDone int
	// FinalDt is the timestep at exit (smaller than the initial dt if
	// blowup recovery halved it).
	FinalDt float64
	// AliveRanks is the rank count at exit (smaller than the initial
	// count after rank deaths).
	AliveRanks int
	// Checkpoints counts checkpoints written; Rollbacks counts restores.
	Checkpoints, Rollbacks int
	// Resumed reports whether the run restarted from a stored checkpoint.
	Resumed bool
	// Events is the deterministic event log, in order.
	Events []Event
}

// BlowupError reports a blowup (non-finite state) that persisted through
// the supervisor's rollback and dt-halving budget.
type BlowupError struct {
	Step      int
	Rollbacks int
	Cause     error
}

func (e *BlowupError) Error() string {
	return fmt.Sprintf("resilience: blowup at step %d not recovered after %d rollbacks: %v",
		e.Step, e.Rollbacks, e.Cause)
}

func (e *BlowupError) Unwrap() error { return e.Cause }

// Supervisor drives a SEAM shallow-water run with checkpointing, fault
// detection and graceful degradation. It owns the control loop the paper's
// production setting implies but never spells out: partition, integrate,
// watch, and when something breaks, fall back rather than fall over.
type Supervisor struct {
	// SW is the shallow-water state to integrate.
	SW *seam.ShallowWater
	// Ne is the cube face size (needed to re-partition survivors).
	Ne int
	// Assign and NRanks give the initial element-to-rank assignment.
	Assign []int32
	NRanks int
	// Store receives checkpoints; nil disables checkpointing (and
	// therefore rollback recovery: any detected fault becomes fatal).
	Store *Store
	// Injector optionally injects faults; nil injects nothing.
	Injector *Injector
	Policy   Policy
	// Obs, when non-nil, receives the supervisor's metrics: per-kind event
	// counters and checkpoint bytes+latency (see
	// DESIGN.md "Observability"). Nil disables metering.
	Obs *obs.Registry
	// Trace, when non-nil, receives EvCheckpoint/EvRecovery span events.
	Trace *obs.RunTrace
}

// Run integrates until the absolute step counter reaches steps. On resume
// the counter starts from the stored checkpoint (and the stored dt
// overrides the argument, preserving earlier blowup halvings), so an
// interrupted run re-run with the same arguments completes the original
// schedule bitwise-identically to an uninterrupted one.
//
// The returned Report is non-nil even on error and carries the event log
// up to the failure.
func (s *Supervisor) Run(ctx context.Context, steps int, dt float64) (*Report, error) {
	pol := s.Policy.withDefaults()
	rep := &Report{FinalDt: dt, AliveRanks: s.NRanks}
	assign := append([]int32(nil), s.Assign...)
	nranks := s.NRanks
	step := 0

	met := newSupMetrics(s.Obs)
	event := func(st int, kind EventKind, rank int, format string, args ...any) {
		rep.Events = append(rep.Events, Event{Step: st, Kind: kind, Rank: rank, Detail: fmt.Sprintf(format, args...)})
		met.observeEvent(kind)
	}

	save := func() error {
		if s.Store == nil {
			return nil
		}
		start := time.Now()
		buf := EncodeCheckpoint(s.SW, uint64(step), dt)
		if err := s.Store.Save(buf); err != nil {
			return fmt.Errorf("resilience: checkpoint at step %d: %w", step, err)
		}
		met.observeCheckpoint(len(buf), time.Since(start))
		if s.Trace != nil {
			s.Trace.Record(obs.Event{Kind: obs.EvCheckpoint, Step: int32(step), Stage: -1, Rank: -1, Arg: int64(len(buf))})
		}
		rep.Checkpoints++
		event(step, EventCheckpoint, -1, "dt=%g", dt)
		return nil
	}

	// restore rolls the state back to the newest valid checkpoint,
	// reporting skipped corrupt slots.
	restore := func() error {
		if s.Store == nil {
			return fmt.Errorf("resilience: cannot roll back: no checkpoint store")
		}
		ck, skipped, err := s.Store.Load()
		if err != nil {
			return fmt.Errorf("resilience: rollback: %w", err)
		}
		if skipped > 0 {
			event(step, EventCorruptSkipped, -1, "%d corrupt slot(s) skipped, using checkpoint of step %d", skipped, int(ck.Step))
		}
		if err := ck.Restore(s.SW); err != nil {
			return err
		}
		event(step, EventRollback, -1, "restored step %d dt=%g", int(ck.Step), ck.Dt)
		if s.Trace != nil {
			s.Trace.Record(obs.Event{Kind: obs.EvRecovery, Step: int32(step), Stage: -1, Rank: -1, Arg: int64(ck.Step)})
		}
		step, dt = int(ck.Step), ck.Dt
		rep.Rollbacks++
		return nil
	}

	// Resume or write the step-0 checkpoint.
	if s.Store != nil {
		ck, skipped, err := s.Store.Load()
		switch {
		case err == nil:
			if skipped > 0 {
				event(int(ck.Step), EventCorruptSkipped, -1, "%d corrupt slot(s) skipped", skipped)
			}
			if err := ck.Restore(s.SW); err != nil {
				return rep, err
			}
			step, dt = int(ck.Step), ck.Dt
			rep.Resumed = true
			event(step, EventResume, -1, "dt=%g", dt)
		case errors.Is(err, ErrNoCheckpoint):
			if err := save(); err != nil {
				return rep, err
			}
		default:
			return rep, err
		}
	}

	if s.Injector != nil {
		s.Injector.arm(nranks)
	}
	// newRunner (re)builds the runner for the current assignment and hands
	// it the supervisor's instrumentation, so runner metrics survive
	// re-partitions and rank deaths.
	newRunner := func() (*seam.Runner, error) {
		r, err := seam.NewRunner(s.SW, assign, nranks)
		if err == nil {
			r.Instrument(s.Obs, s.Trace)
		}
		return r, err
	}
	runner, err := newRunner()
	if err != nil {
		return rep, err
	}
	v1, _, _ := s.SW.StateSlabs()
	npts := s.SW.G.PointsPerElem()
	bytesPerElem := int64(3 * npts * 8)

	halvings := 0
	overBudget := func(cause error) error {
		rep.StepsDone, rep.FinalDt, rep.AliveRanks = step, dt, nranks
		return &BlowupError{Step: step, Rollbacks: rep.Rollbacks, Cause: cause}
	}

	for step < steps {
		// Supervisor-side faults fire before the step runs.
		if f := s.Injector.take(FaultCorruptCheckpoint, step, -1); f != nil && s.Store != nil {
			bit := s.Injector.derivedBit(f.Step)
			if err := s.Store.Corrupt(bit); err != nil {
				return rep, err
			}
			// Detection happens on the next Load; no event until then.
		}
		if f := s.Injector.take(FaultPartitionTimeout, step, -1); f != nil {
			expired, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
			res, err := resilience.PartitionWithFallback(expired, resilience.NewFallbackSpec(s.Ne, nranks))
			cancel()
			if err != nil {
				return rep, err
			}
			event(step, EventPartitionFallback, -1, "deadline overrun, chain %s", res)
			assign = append(assign[:0], res.Partition.Assignment()...)
			if runner, err = newRunner(); err != nil {
				return rep, err
			}
		}

		curStep := step
		hooks := &seam.StepHooks{BeforeRankStage: func(_, stage, rank int) {
			if stage != 0 {
				return
			}
			if f := s.Injector.take(FaultNaN, curStep, rank); f != nil {
				// Poison the first point of the rank's first owned element.
				// This runs on the owning worker before its stage-0 reads,
				// so no other rank touches the block concurrently.
				v1[int(runner.Owned(rank)[0])*npts] = math.NaN()
			}
			if f := s.Injector.take(FaultStall, curStep, rank); f != nil {
				time.Sleep(stallFor)
			}
			if f := s.Injector.take(FaultRankDeath, curStep, rank); f != nil {
				panic(RankDeath{Rank: rank, Step: curStep})
			}
		}}

		stepCtx, cancel := ctx, context.CancelFunc(func() {})
		if pol.StepDeadline > 0 {
			stepCtx, cancel = context.WithTimeout(ctx, pol.StepDeadline)
		}
		_, runErr := runner.RunCtx(stepCtx, 1, dt, hooks)
		cancel()

		if runErr != nil {
			rebuild, err := s.recover(ctx, rep, pol, event, restore, &step, &dt, &nranks, &assign, bytesPerElem, runErr)
			if err != nil {
				rep.StepsDone, rep.FinalDt, rep.AliveRanks = step, dt, nranks
				return rep, err
			}
			if rep.Rollbacks > maxRollbacks {
				return rep, overBudget(runErr)
			}
			if rebuild {
				if runner, err = newRunner(); err != nil {
					return rep, err
				}
			}
			continue
		}

		step++
		if ferr := resilience.CheckFinite(s.SW); ferr != nil {
			event(step-1, EventNaNDetected, -1, "%v", ferr)
			if err := restore(); err != nil {
				return rep, err
			}
			if rep.Rollbacks > maxRollbacks {
				return rep, overBudget(ferr)
			}
			if halvings < maxDtHalvings {
				dt /= 2
				halvings++
				event(step, EventDtHalved, -1, "dt=%g", dt)
			}
			continue
		}
		if pol.CheckpointEvery > 0 && step%pol.CheckpointEvery == 0 && step < steps {
			if err := save(); err != nil {
				return rep, err
			}
		}
	}

	if err := save(); err != nil {
		return rep, err
	}
	rep.StepsDone, rep.FinalDt, rep.AliveRanks = step, dt, nranks
	return rep, nil
}

// recover classifies a RunCtx error and takes the matching degradation
// path. It reports whether the runner must be rebuilt; a non-nil error is
// fatal to the run.
func (s *Supervisor) recover(ctx context.Context, rep *Report, pol Policy,
	event func(int, EventKind, int, string, ...any), restore func() error,
	step *int, dt *float64, nranks *int, assign *[]int32, bytesPerElem int64, runErr error) (rebuild bool, err error) {

	var rp *seam.RankPanicError
	var to *seam.TimeoutError
	switch {
	case errors.As(runErr, &rp):
		death, ok := rp.Value.(RankDeath)
		if !ok {
			// A genuine bug, not an injected death: surface it.
			return false, runErr
		}
		event(*step, EventRankDeath, death.Rank, "worker panic: %v", death)
		if *nranks <= 1 {
			return false, fmt.Errorf("resilience: last rank died at step %d: %w", *step, runErr)
		}
		if err := restore(); err != nil {
			return false, err
		}
		// Survivor-side re-partition: cheap and predictable, exactly the
		// regime the SFC partitioner was designed for.
		// FromAssignment wraps (not copies) the slice, and *assign is about
		// to be overwritten in place: snapshot it for the migration diff.
		old, err := partition.FromAssignment(append([]int32(nil), *assign...), *nranks)
		if err != nil {
			return false, err
		}
		*nranks--
		spec := resilience.NewFallbackSpec(s.Ne, *nranks)
		spec.Chain = resilience.RepartitionChain
		res, err := resilience.PartitionWithFallback(ctx, spec)
		if err != nil {
			return false, err
		}
		*assign = append((*assign)[:0], res.Partition.Assignment()...)
		mig, err := core.MigrationBetween(old, res.Partition, bytesPerElem)
		if err != nil {
			return false, err
		}
		event(*step, EventRepartition, -1, "%s over %d survivors, %.0f%% of elements moved",
			res.Strategy, *nranks, 100*mig.MovedFraction)
		if len(res.Attempts) > 0 {
			event(*step, EventPartitionFallback, -1, "chain %s", res)
		}
		if s.Injector != nil {
			s.Injector.arm(*nranks)
		}
		return true, nil

	case errors.As(runErr, &to):
		if ctx.Err() != nil {
			// The run context itself ended: stop, preserving the newest
			// checkpoint for a later resume.
			rep.StepsDone, rep.FinalDt, rep.AliveRanks = *step, *dt, *nranks
			return false, fmt.Errorf("resilience: run interrupted at step %d: %w", *step, runErr)
		}
		// A per-step deadline overran (stall). The event names the
		// injected stall's target when one fired at this step — the
		// observed in-flight set is scheduling noise and is left out.
		rank := -1
		if f := s.Injector.firedAt(FaultStall, *step); f != nil {
			rank = f.Rank
		}
		event(*step, EventStallTimeout, rank, "step deadline %v exceeded", pol.StepDeadline)
		if err := restore(); err != nil {
			return false, err
		}
		return false, nil
	}
	return false, runErr
}
