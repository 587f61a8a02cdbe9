package seam

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewRunnerTypedErrors(t *testing.T) {
	sw, _ := w2Solver(t, 2, 3)
	k := sw.G.NumElems()

	_, err := NewRunner(sw, make([]int32, k-1), 2)
	var ale *AssignLengthError
	if !errors.As(err, &ale) || ale.Got != k-1 || ale.Want != k {
		t.Errorf("short assignment: got %v, want *AssignLengthError{%d,%d}", err, k-1, k)
	}

	bad := make([]int32, k)
	bad[3] = 7
	_, err = NewRunner(sw, bad, 2)
	var rre *RankRangeError
	if !errors.As(err, &rre) || rre.Elem != 3 || rre.Rank != 7 || rre.NRanks != 2 {
		t.Errorf("out-of-range rank: got %v, want *RankRangeError{3,7,2}", err)
	}

	// All elements on rank 0 leaves rank 1 and 2 empty.
	_, err = NewRunner(sw, make([]int32, k), 3)
	var ere *EmptyRankError
	if !errors.As(err, &ere) {
		t.Fatalf("empty ranks: got %v, want *EmptyRankError", err)
	}
	if len(ere.Ranks) != 2 || ere.Ranks[0] != 1 || ere.Ranks[1] != 2 || ere.NRanks != 3 {
		t.Errorf("empty ranks reported as %+v, want ranks [1 2] of 3", ere)
	}
}

// TestRunCtxMatchesRun: an un-cancelled RunCtx with no hooks must produce a
// state bitwise identical to the plain Run path.
func TestRunCtxMatchesRun(t *testing.T) {
	plainSW, dt := w2Solver(t, 2, 4)
	ctxSW, _ := w2Solver(t, 2, 4)
	k := plainSW.G.NumElems()
	const steps, ranks = 5, 4

	rp, err := NewRunner(plainSW, blockAssign(k, ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	rp.Run(steps, dt)

	rc, err := NewRunner(ctxSW, blockAssign(k, ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.RunCtx(context.Background(), steps, dt, nil); err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, plainSW, ctxSW, "RunCtx vs Run")
}

func TestRunCtxPreCancelled(t *testing.T) {
	sw, dt := w2Solver(t, 2, 3)
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = r.RunCtx(ctx, 3, dt, nil)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want *TimeoutError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestRunCtxStallTimesOut: a rank sleeping past the deadline must surface a
// TimeoutError instead of hanging the scheduler, and the error must unwrap
// to DeadlineExceeded.
func TestRunCtxStallTimesOut(t *testing.T) {
	sw, dt := w2Solver(t, 2, 3)
	const ranks = 2
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hooks := &StepHooks{BeforeRankStage: func(step, stage, rank int) {
		if step == 0 && stage == 0 && rank == 1 {
			time.Sleep(500 * time.Millisecond)
		}
	}}
	start := time.Now()
	_, err = r.RunCtx(ctx, 3, dt, hooks)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want *TimeoutError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not unwrap to DeadlineExceeded", err)
	}
	// The run must abort near the deadline, not wait out the stall. The
	// stalled worker goroutine itself finishes its sleep in the background;
	// RunCtx only waits for it after the watchdog aborts the schedule.
	if e := time.Since(start); e > 10*time.Second {
		t.Errorf("RunCtx took %v, deadline was 50ms", e)
	}
}

func TestRunCtxPanicAttribution(t *testing.T) {
	sw, dt := w2Solver(t, 2, 3)
	const ranks = 3
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	boom := "injected test panic"
	hooks := &StepHooks{BeforeRankStage: func(step, stage, rank int) {
		if step == 1 && stage == 2 && rank == 2 {
			panic(boom)
		}
	}}
	_, err = r.RunCtx(context.Background(), 4, dt, hooks)
	var rp *RankPanicError
	if !errors.As(err, &rp) {
		t.Fatalf("got %v, want *RankPanicError", err)
	}
	if rp.Rank != 2 || rp.Step != 1 || rp.Stage != 2 || rp.Value != boom {
		t.Errorf("panic attributed to %+v, want rank 2 step 1 stage 2 value %q", rp, boom)
	}
}

// TestRunCtxHookCoverage: BeforeRankStage fires once per (step, stage, rank).
func TestRunCtxHookCoverage(t *testing.T) {
	sw, dt := w2Solver(t, 2, 3)
	const ranks, steps = 2, 3
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hooks := &StepHooks{BeforeRankStage: func(step, stage, rank int) { calls.Add(1) }}
	if _, err := r.RunCtx(context.Background(), steps, dt, hooks); err != nil {
		t.Fatal(err)
	}
	if want := int64(steps * 4 * ranks); calls.Load() != want {
		t.Errorf("hook fired %d times, want %d", calls.Load(), want)
	}
}

// TestRunnerReusableAfterError: a runner that aborted one RunCtx call must
// run cleanly on the next call (fresh scheduler and control state).
func TestRunnerReusableAfterError(t *testing.T) {
	sw, dt := w2Solver(t, 2, 3)
	const ranks = 2
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	hooks := &StepHooks{BeforeRankStage: func(step, stage, rank int) {
		if rank == 1 && step == 0 && stage == 0 {
			panic("die once")
		}
	}}
	if _, err := r.RunCtx(context.Background(), 2, dt, hooks); err == nil {
		t.Fatal("expected panic error")
	}
	if _, err := r.RunCtx(context.Background(), 2, dt, nil); err != nil {
		t.Fatalf("runner unusable after recovered panic: %v", err)
	}
}

// TestRunCtxTimeoutInEpilogue: a context that expires while a rank sits in
// the final-step epilogue must list that rank in TimeoutError.InFlight. The
// probe cancels the context from inside the stalled rank's epilogue task, so
// the expiry lands there by construction, at one worker (one block on the
// caller) and at two.
func TestRunCtxTimeoutInEpilogue(t *testing.T) {
	const ranks, steps, stalled = 6, 2, 4
	for _, workers := range []int{1, 2} {
		sw, dt := w2Solver(t, 2, 3)
		r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		r.testOnTask = func(rk int32, pos int64, _ bool) {
			if pos == steps*8 && rk == stalled {
				cancel()
				// Hold the claim while the watchdog snapshots InFlight.
				time.Sleep(200 * time.Millisecond)
			}
		}
		_, err = r.RunCtx(ctx, steps, dt, nil)
		cancel()
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: got %v, want *TimeoutError", workers, err)
		}
		want := RankPos{Rank: stalled, Step: steps - 1, Stage: 3}
		if !slices.Contains(te.InFlight, want) {
			t.Errorf("workers=%d: InFlight = %v, want it to list %+v", workers, te.InFlight, want)
		}
	}
}
