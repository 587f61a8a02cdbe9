package supervise

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sfccube/internal/seam"
)

const (
	tNe, tDeg, tRanks = 2, 3, 4
)

// supRun runs a fresh supervised integration and returns its report, error,
// and a snapshot of the final prognostic slabs.
func supRun(t *testing.T, steps int, store *Store, inj *Injector, pol Policy) (*Report, error, [3][]float64) {
	t.Helper()
	sw, dt := testSW(t, tNe, tDeg)
	sup := &Supervisor{
		SW: sw, Ne: tNe, Assign: sfcAssign(t, tNe, tRanks), NRanks: tRanks,
		Store: store, Injector: inj, Policy: pol,
	}
	rep, err := sup.Run(context.Background(), steps, dt)
	return rep, err, snapshotSlabs(sw)
}

func hasEvent(rep *Report, kind EventKind) bool {
	for _, e := range rep.Events {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func requireFinite(t *testing.T, slabs [3][]float64) {
	t.Helper()
	for f := range slabs {
		for i, x := range slabs[f] {
			if x != x { // NaN
				t.Fatalf("non-finite final state: slab %d index %d", f, i)
			}
		}
	}
}

// TestSupervisorMatchesPlainRun: with no faults, the supervised loop (which
// chunks the integration one step at a time around sentinel scans and
// checkpoints) must be bitwise identical to an uninterrupted Runner.Run.
func TestSupervisorMatchesPlainRun(t *testing.T) {
	const steps = 6
	plainSW, dt := testSW(t, tNe, tDeg)
	r, err := seam.NewRunner(plainSW, sfcAssign(t, tNe, tRanks), tRanks)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(steps, dt)

	rep, err, slabs := supRun(t, steps, NewMemStore(), nil, Policy{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StepsDone != steps || rep.Rollbacks != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Checkpoints < 3 {
		t.Errorf("only %d checkpoints for %d steps at cadence 2", rep.Checkpoints, steps)
	}
	requireSlabsBitwise(t, slabs, snapshotSlabs(plainSW), "supervised vs plain")
}

// TestSupervisorResumeBitwise: a run stopped after 4 steps and resumed from
// its checkpoint store to step 10 must match an uninterrupted 10-step run
// bitwise, including the step at which nothing was checkpointed recently.
func TestSupervisorResumeBitwise(t *testing.T) {
	_, err, want := supRun(t, 10, NewMemStore(), nil, Policy{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	if _, err, _ := supRun(t, 4, store, nil, Policy{CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	rep, err, got := supRun(t, 10, store, nil, Policy{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed || !hasEvent(rep, EventResume) {
		t.Fatalf("second run did not resume: %+v", rep)
	}
	requireSlabsBitwise(t, got, want, "resumed vs uninterrupted")
}

// TestSupervisorInterruptResumeBitwise: cancelling the run context mid-
// integration must surface a typed interruption error and leave a store
// from which a later run completes the schedule bitwise identically.
func TestSupervisorInterruptResumeBitwise(t *testing.T) {
	const steps = 40
	_, err, want := supRun(t, steps, NewMemStore(), nil, Policy{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	sw, dt := testSW(t, tNe, tDeg)
	sup := &Supervisor{
		SW: sw, Ne: tNe, Assign: sfcAssign(t, tNe, tRanks), NRanks: tRanks,
		Store: store, Policy: Policy{CheckpointEvery: 4},
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	rep, err := sup.Run(ctx, steps, dt)
	timer.Stop()
	cancel()
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interruption error %v does not unwrap to context.Canceled", err)
		}
		t.Logf("interrupted at step %d of %d", rep.StepsDone, steps)
	} else {
		t.Logf("run completed before the cancel fired; resume path not exercised")
	}

	rep2, err, got := supRun(t, steps, store, nil, Policy{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.StepsDone != steps {
		t.Fatalf("resumed run stopped at %d", rep2.StepsDone)
	}
	requireSlabsBitwise(t, got, want, "interrupt+resume vs uninterrupted")
}

// faultCase describes one row of the fault matrix: an injection plan, the
// policy it runs under, and the recovery evidence its report must show.
type faultCase struct {
	name   string
	plan   string
	pol    Policy
	steps  int
	expect []EventKind
	check  func(t *testing.T, rep *Report)
}

// TestFaultMatrix exercises every injectable fault kind end to end: the
// fault is detected, the matching recovery path runs, the final state is
// finite, and — because every fault parameter derives from the injector
// seed — two runs of the same scenario produce identical event logs and
// bitwise-identical final states.
func TestFaultMatrix(t *testing.T) {
	cases := []faultCase{
		{
			name: "nan", plan: "nan@3", steps: 8,
			pol:    Policy{CheckpointEvery: 2},
			expect: []EventKind{EventNaNDetected, EventRollback, EventDtHalved},
			check: func(t *testing.T, rep *Report) {
				if rep.Rollbacks != 1 {
					t.Errorf("rollbacks = %d, want 1", rep.Rollbacks)
				}
			},
		},
		{
			name: "rankdeath", plan: "rankdeath@4:2", steps: 8,
			pol:    Policy{CheckpointEvery: 2},
			expect: []EventKind{EventRankDeath, EventRollback, EventRepartition},
			check: func(t *testing.T, rep *Report) {
				if rep.AliveRanks != tRanks-1 {
					t.Errorf("alive ranks = %d, want %d", rep.AliveRanks, tRanks-1)
				}
				for _, e := range rep.Events {
					if e.Kind == EventRankDeath && e.Rank != 2 {
						t.Errorf("death attributed to rank %d, want 2", e.Rank)
					}
				}
			},
		},
		{
			name: "stall", plan: "stall@3", steps: 8,
			pol:    Policy{CheckpointEvery: 2, StepDeadline: 80 * time.Millisecond},
			expect: []EventKind{EventStallTimeout, EventRollback},
			check: func(t *testing.T, rep *Report) {
				for _, e := range rep.Events {
					if e.Kind == EventStallTimeout && e.Rank < 0 {
						t.Error("stall event lost its target rank")
					}
				}
			},
		},
		{
			name: "corruptckpt", plan: "corruptckpt@5,nan@5", steps: 8,
			pol:    Policy{CheckpointEvery: 2},
			expect: []EventKind{EventNaNDetected, EventCorruptSkipped, EventRollback},
			check: func(t *testing.T, rep *Report) {
				// The checkpoint of step 4 was corrupted, so the rollback
				// after the NaN must have skipped it and restored step 2.
				for _, e := range rep.Events {
					if e.Kind == EventRollback && !strings.Contains(e.Detail, "restored step 2") {
						t.Errorf("rollback used the wrong checkpoint: %s", e.Detail)
					}
				}
			},
		},
		{
			name: "parttimeout", plan: "parttimeout@3", steps: 8,
			pol:    Policy{CheckpointEvery: 2},
			expect: []EventKind{EventPartitionFallback},
			check: func(t *testing.T, rep *Report) {
				if rep.Rollbacks != 0 {
					t.Errorf("partition fallback should not roll back, got %d", rep.Rollbacks)
				}
			},
		},
		{
			name: "combined", plan: "nan@2,stall@3,corruptckpt@4,rankdeath@5,parttimeout@6", steps: 8,
			pol: Policy{CheckpointEvery: 2, StepDeadline: 80 * time.Millisecond},
			expect: []EventKind{
				EventNaNDetected, EventStallTimeout, EventRankDeath,
				EventRepartition, EventPartitionFallback, EventRollback,
			},
			check: func(t *testing.T, rep *Report) {
				if rep.AliveRanks != tRanks-1 {
					t.Errorf("alive ranks = %d, want %d", rep.AliveRanks, tRanks-1)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Report, [3][]float64) {
				faults, err := ParseFaults(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				inj := NewInjector(99, faults...)
				rep, err, slabs := supRun(t, tc.steps, NewMemStore(), inj, tc.pol)
				if err != nil {
					t.Fatalf("supervised run failed: %v (events: %v)", err, rep.Events)
				}
				if rep.StepsDone != tc.steps {
					t.Fatalf("reached step %d, want %d", rep.StepsDone, tc.steps)
				}
				requireFinite(t, slabs)
				return rep, slabs
			}

			rep1, slabs1 := run()
			for _, kind := range tc.expect {
				if !hasEvent(rep1, kind) {
					t.Errorf("missing %s event; log:\n%v", kind, rep1.Events)
				}
			}
			if tc.check != nil {
				tc.check(t, rep1)
			}

			// Same seed, same plan: the whole failure scenario must replay.
			rep2, slabs2 := run()
			if !reflect.DeepEqual(rep1, rep2) {
				t.Errorf("reports differ across same-seed runs:\n%+v\n%+v", rep1, rep2)
			}
			requireSlabsBitwise(t, slabs1, slabs2, "same-seed replay")
		})
	}
}

// TestSupervisorBlowupBudget: a fault volley exceeding maxRollbacks must
// surface as a typed *BlowupError instead of looping forever.
func TestSupervisorBlowupBudget(t *testing.T) {
	faults, err := ParseFaults("nan@1,nan@2,nan@3,nan@4,nan@5")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(7, faults...)
	rep, err, _ := supRun(t, 6, NewMemStore(), inj, Policy{CheckpointEvery: 1})
	var be *BlowupError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BlowupError (report %+v)", err, rep)
	}
	if be.Rollbacks != maxRollbacks+1 {
		t.Errorf("blowup after %d rollbacks, want %d", be.Rollbacks, maxRollbacks+1)
	}
}

// TestSupervisorNoStoreIsFatal: without a checkpoint store there is nothing
// to roll back to, so a detected NaN must end the run with an error.
func TestSupervisorNoStoreIsFatal(t *testing.T) {
	faults, err := ParseFaults("nan@1")
	if err != nil {
		t.Fatal(err)
	}
	_, err, _ = supRun(t, 4, nil, NewInjector(7, faults...), Policy{})
	if err == nil || !strings.Contains(err.Error(), "cannot roll back") {
		t.Fatalf("got %v, want roll-back failure", err)
	}
}
