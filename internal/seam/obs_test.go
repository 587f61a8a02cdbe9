package seam

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"sfccube/internal/obs"
)

// TestRunnerMetrics checks that an instrumented run meters exactly what
// the runner's own accounting reports: steps, flops, DSS bytes, and the
// per-stage/per-rank sample counts.
func TestRunnerMetrics(t *testing.T) {
	sw, dt := w2Solver(t, 2, 4)
	const ranks, steps = 4, 3
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewRunTrace(1 << 10)
	r.Instrument(reg, tr)
	flops0 := sw.Flops
	r.Run(steps, dt)

	if got := reg.Counter("seam_steps_total").Value(); got != steps {
		t.Errorf("seam_steps_total = %d, want %d", got, steps)
	}
	// One flop figure, three meters: the solver's own counter, the registry
	// counter and the step events must agree with each other and with what
	// the sequential Step meters for the same work.
	twin, _ := w2Solver(t, 2, 4)
	twin0 := twin.Flops
	twin.Step(dt)
	want := steps * (twin.Flops - twin0)
	if got := sw.Flops - flops0; got != want {
		t.Errorf("runner added %d to sw.Flops, want %d", got, want)
	}
	if got := reg.Counter("seam_flops_total").Value(); got != want {
		t.Errorf("seam_flops_total = %d, want %d (the runner's own flop meter)", got, want)
	}
	var evFlops int64
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvStep {
			evFlops += ev.Arg
		}
	}
	if evFlops != want {
		t.Errorf("EvStep.Arg sums to %d, want %d", evFlops, want)
	}
	var wantBytes int64
	for _, b := range r.BytesPerStep() {
		wantBytes += b
	}
	if got := reg.Counter("seam_dss_bytes_total").Value(); got != steps*wantBytes {
		t.Errorf("seam_dss_bytes_total = %d, want %d", got, steps*wantBytes)
	}
	// Every rank contributes one compute span per stage per step and one
	// DSS span per stage per step.
	for st := 0; st < 4; st++ {
		h := reg.Histogram("seam_stage_compute_ns", "stage", string(rune('0'+st)))
		if got := h.Count(); got != ranks*steps {
			t.Errorf("stage %d compute samples = %d, want %d", st, got, ranks*steps)
		}
	}
	if got := reg.Histogram("seam_dss_assembly_ns").Count(); got != 4*ranks*steps {
		t.Errorf("dss samples = %d, want %d", got, 4*ranks*steps)
	}
	// Epoch waits only occur when a worker actually parks; a one-worker or
	// uncontended run legitimately records none. Presence of wait samples
	// under contention is asserted by TestBusyTimeExcludesWait; here we
	// only require the histogram to be registered.
	if got := reg.Histogram("seam_epoch_wait_ns").Count(); got < 0 {
		t.Errorf("seam_epoch_wait_ns count = %d", got)
	}

	// The step-boundary gauges must agree with the runner's own BusyTime
	// now that the run has finished.
	for rk := 0; rk < ranks; rk++ {
		g := reg.Gauge("seam_rank_busy_ns", "rank", strconv.Itoa(rk))
		if g.Value() != int64(r.BusyTime[rk]) {
			t.Errorf("rank %d: gauge %d != BusyTime %d", rk, g.Value(), int64(r.BusyTime[rk]))
		}
	}

	// De-instrumenting restores the bare runner; another run must not
	// touch the registry.
	r.Instrument(nil, nil)
	r.Run(1, dt)
	if got := reg.Counter("seam_steps_total").Value(); got != steps {
		t.Errorf("de-instrumented run still metered: steps = %d, want %d", got, steps)
	}
}

// TestSnapshotConcurrentWithRunCtx scrapes the registry (and renders it) from
// several goroutines while RunCtx integrates — the -race oracle for the
// step-boundary publication protocol. Reading Runner.BusyTime directly here
// would be a torn read and a reported race; the gauges and counters the
// workers publish must be clean, and seam_steps_total must never go back.
func TestSnapshotConcurrentWithRunCtx(t *testing.T) {
	sw, dt := w2Solver(t, 2, 4)
	const ranks = 4
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), ranks), ranks)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewRunTrace(1 << 12)
	r.Instrument(reg, tr)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				steps := reg.Snapshot()["seam_steps_total"]
				if steps < last {
					t.Error("seam_steps_total went backwards")
					return
				}
				last = steps
				_ = reg.WritePrometheus(io.Discard)
			}
		}()
	}
	if _, err := r.RunCtx(context.Background(), 6, dt, nil); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := reg.Snapshot()["seam_steps_total"]; got != 6 {
		t.Fatalf("seam_steps_total = %v, want 6", got)
	}
}

// TestRunTraceDeterministicAcrossGOMAXPROCS golds the structured trace:
// two same-seed runs — one on a single worker, one on four — must emit
// deeply equal deterministic event streams, because the logical schedule
// (which rank does which stage of which step, and how many bytes each
// DSS exchange moves) does not depend on the worker count.
func TestRunTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(workers int) []obs.Event {
		sw, dt := w2Solver(t, 2, 4)
		r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), 4), 4)
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = workers
		tr := obs.NewRunTrace(1 << 14)
		tr.Deterministic = true
		r.Instrument(nil, tr)
		r.Run(3, dt)
		return tr.Events()
	}
	one := run(1)
	four := run(4)
	if len(one) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("deterministic traces differ between 1 and 4 workers:\n1: %d events\n4: %d events", len(one), len(four))
	}
	// 4 ranks x 4 stages x 3 steps of stage+dss events, plus 3 step marks.
	if want := 4*4*3*2 + 3; len(one) != want {
		t.Fatalf("trace has %d events, want %d", len(one), want)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("GOMAXPROCS=1: the four-worker run degenerates, but determinism still held")
	}
}

// TestRunnerObsOverheadSmoke guards the contract that instrumentation
// never perturbs results: an instrumented run stays bitwise identical to
// the sequential integration.
func TestRunnerObsOverheadSmoke(t *testing.T) {
	seqSW, dt := w2Solver(t, 2, 4)
	parSW, _ := w2Solver(t, 2, 4)
	const steps = 4
	for s := 0; s < steps; s++ {
		seqSW.Step(dt)
	}
	r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewRunTrace(1 << 12)
	r.Instrument(reg, tr)
	r.Run(steps, dt)
	requireBitwiseEqual(t, seqSW, parSW, "instrumented 4 ranks")
	if tr.Dropped() < 0 || reg.Gauge("seam_rank_busy_ns", "rank", "0").Value() != int64(r.BusyTime[0]) {
		t.Fatal("impossible meter values")
	}
}
