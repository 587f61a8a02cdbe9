package service

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
)

func newIdleAdmitter(workers, depth int) *admitter {
	return newAdmitter(workers, depth, time.Second, nil, nil)
}

// TestAdmitterExpiredNeverConsumesWorker is the regression the admission
// queue exists for: the old bare `sem <- struct{}{}` send would hand an
// idle worker to a request whose caller had already hung up.
func TestAdmitterExpiredNeverConsumesWorker(t *testing.T) {
	a := newIdleAdmitter(2, 4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	err := a.acquire(ctx)
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("expired request admitted: err=%v", err)
	}
	if len(a.sem) != 0 {
		t.Fatalf("expired request consumed a worker slot (%d in use)", len(a.sem))
	}
	var qt *QueueTimeoutError
	if !errors.As(err, &qt) || !errors.Is(qt.Cause, context.DeadlineExceeded) {
		t.Errorf("shed error %v does not carry the context cause", err)
	}
}

func TestAdmitterQueueFull(t *testing.T) {
	a := newIdleAdmitter(1, 0) // one worker, zero waiters
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("idle pool rejected: %v", err)
	}
	err := a.acquire(context.Background())
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("busy pool with full queue returned %v, want QueueFullError", err)
	}
	if qf.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want the configured 1s", qf.RetryAfter)
	}
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("released worker not reusable: %v", err)
	}
}

func TestAdmitterQueueTimeoutWhileQueued(t *testing.T) {
	a := newIdleAdmitter(1, 4)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued wait past its deadline returned %v, want ErrQueueTimeout", err)
	}
	if len(a.waiters) != 0 {
		t.Fatalf("abandoned wait left %d phantom waiters in the queue", len(a.waiters))
	}
	// A later caller still gets the slot once it frees.
	done := make(chan error, 1)
	go func() { done <- a.acquire(context.Background()) }()
	a.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued caller not admitted after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued caller never admitted after release")
	}
}

func TestLatEstimatorP50(t *testing.T) {
	var e latEstimator
	if got := e.p50(); got != 0 {
		t.Fatalf("empty estimator p50 = %v, want 0 (never shed blind)", got)
	}
	e.observe(7 * time.Millisecond)
	if got := e.p50(); got != 7*time.Millisecond {
		t.Fatalf("single-sample p50 = %v", got)
	}
	// The window slides: a full window of old samples is displaced by a
	// full window of new ones.
	for i := 0; i < latWindow; i++ {
		e.observe(10 * time.Millisecond)
	}
	for i := 0; i < latWindow; i++ {
		e.observe(20 * time.Millisecond)
	}
	if got := e.p50(); got != 20*time.Millisecond {
		t.Fatalf("post-slide p50 = %v, want 20ms", got)
	}
}

// TestLatEstimatorMatchesSortReference holds the stack-copy median to a
// sort-based reference over random windows of 1 to 100 samples (more than
// latWindow samples slide the window).
func TestLatEstimatorMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var e latEstimator
		var all []time.Duration
		for i, n := 0, 1+rng.Intn(100); i < n; i++ {
			d := time.Duration(rng.Intn(1000))
			e.observe(d)
			all = append(all, d)
		}
		win := append([]time.Duration(nil), all[max(0, len(all)-latWindow):]...)
		sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		if got, want := e.p50(), win[len(win)/2]; got != want {
			t.Fatalf("trial %d (%d samples): p50 = %v, want %v", trial, len(all), got, want)
		}
	}
}

// TestLatEstimatorRecordAllocationFree: once a route's gauge is resolved,
// observing a sample, taking the median and publishing it allocate nothing;
// the gauge series appears with the route's first sample.
func TestLatEstimatorRecordAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	var e latEstimator
	if n := len(reg.Snapshot()); n != 0 {
		t.Fatalf("registry holds %d series before any sample", n)
	}
	e.record(5*time.Millisecond, reg, "sfc")
	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("after the first sample the registry holds %v, want the route's p50 gauge", snap)
	}
	for _, v := range snap {
		if v != float64(5*time.Millisecond) {
			t.Fatalf("published p50 = %v, want %v", v, float64(5*time.Millisecond))
		}
	}
	d := time.Millisecond
	if allocs := testing.AllocsPerRun(200, func() {
		d += time.Microsecond
		e.record(d, reg, "sfc")
	}); allocs != 0 {
		t.Fatalf("record allocates %v times per sample, want 0", allocs)
	}
}

// TestExpiredRequestShedsBeforeWorker drives the satellite regression
// through the whole service: an already-dead request must produce a shed,
// zero computations and zero recorded failures.
func TestExpiredRequestShedsBeforeWorker(t *testing.T) {
	s := newTestService(t, Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, _, err := s.Partition(ctx, Request{Ne: 4, NParts: 6})
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("expired request returned %v, want ErrQueueTimeout", err)
	}
	if got := counter(t, s, "partsrv_computations_total"); got != 0 {
		t.Errorf("expired request ran %v computations", got)
	}
	if got := counter(t, s, `partsrv_shed_total{reason="cancelled"}`); got != 1 {
		t.Errorf("cancelled-shed counter = %v, want 1", got)
	}
	if got := counter(t, s, "partsrv_failures_total"); got != 0 {
		t.Errorf("shed counted as failure (failures_total = %v)", got)
	}
}

// TestDeadlineTooShortShed: once the estimator has seen how long a route
// takes, a request whose remaining deadline cannot cover the median is
// refused before it queues.
func TestDeadlineTooShortShed(t *testing.T) {
	s := newTestService(t, Config{})
	s.estimates["sfc"].observe(time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err := s.Partition(ctx, Request{Ne: 4, NParts: 6, Method: "sfc"})
	var ds *DeadlineTooShortError
	if !errors.As(err, &ds) {
		t.Fatalf("doomed request returned %v, want DeadlineTooShortError", err)
	}
	if ds.Route != "sfc" || ds.Need != time.Hour {
		t.Errorf("shed error %+v does not describe the route estimate", ds)
	}
	if got := counter(t, s, `partsrv_shed_total{reason="deadline"}`); got != 1 {
		t.Errorf("deadline-shed counter = %v, want 1", got)
	}
	// The same request without a caller deadline is served normally.
	payload, _, err := s.Partition(context.Background(), Request{Ne: 4, NParts: 6, Method: "sfc"})
	if err != nil {
		t.Fatalf("deadline-free request failed: %v", err)
	}
	validate(t, decodeResponse(t, payload))
}

// TestBreakerTripsToFallback is the tentpole's end-to-end: a pathological
// method trips its breaker, and subsequent requests short-circuit straight
// to the healthy tail of the fallback chain — uncached, and labelled.
func TestBreakerTripsToFallback(t *testing.T) {
	s := newTestService(t, Config{BreakerFailures: 2, BreakerCooldown: time.Hour})
	seed := func(v int64) *int64 { return &v }

	// Two already-expired requests: KWAY and RB each fail twice with the
	// context error, reaching the trip threshold.
	for i := int64(1); i <= 2; i++ {
		payload, _, err := s.Partition(context.Background(),
			Request{Ne: 4, NParts: 6, Method: "auto", Seed: seed(i), DeadlineMS: -1})
		if err != nil {
			t.Fatalf("expired-budget request %d failed: %v", i, err)
		}
		if resp := decodeResponse(t, payload); !resp.Degraded {
			t.Fatalf("expired-budget request %d not degraded", i)
		}
	}
	for _, m := range []string{"KWAY", "RB"} {
		if got := counter(t, s, `partsrv_breaker_state{method="`+m+`"}`); got != 1 {
			t.Fatalf("breaker %s state = %v, want 1 (open)", m, got)
		}
	}

	// A healthy request now skips the tripped links without attempting them.
	payload, meta, err := s.Partition(context.Background(),
		Request{Ne: 4, NParts: 6, Method: "auto", Seed: seed(3)})
	if err != nil {
		t.Fatalf("post-trip request failed: %v", err)
	}
	resp := decodeResponse(t, payload)
	if want := []string{"KWAY", "RB"}; !reflect.DeepEqual(resp.BreakerSkipped, want) {
		t.Errorf("BreakerSkipped = %v, want %v", resp.BreakerSkipped, want)
	}
	if resp.Strategy != "SFC" {
		t.Errorf("strategy %q, want SFC (first healthy link)", resp.Strategy)
	}
	if resp.Degraded || len(resp.Attempts) != 0 {
		t.Errorf("short-circuited response marked degraded (%v) or carries attempts (%v)", resp.Degraded, resp.Attempts)
	}
	if !meta.BreakerOpen {
		t.Error("Meta.BreakerOpen not set")
	}
	validate(t, resp)
	if got := counter(t, s, `partsrv_breaker_short_circuits_total{method="KWAY"}`); got != 1 {
		t.Errorf("short-circuit counter = %v, want 1", got)
	}

	// Breaker-skipped responses reflect transient state and are never
	// cached: replaying the same request computes again.
	before := counter(t, s, "partsrv_computations_total")
	_, _, err = s.Partition(context.Background(),
		Request{Ne: 4, NParts: 6, Method: "auto", Seed: seed(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(t, s, "partsrv_computations_total"); got != before+1 {
		t.Errorf("breaker-skipped response was cached (computations %v -> %v)", before, got)
	}
	if got := counter(t, s, "partsrv_cache_hits_total"); got != 0 {
		t.Errorf("cache hits = %v, want 0", got)
	}
}

// TestBreakerChargesEachLinkItsOwnTime is the service-level form of the
// resilience test of the same name: with -breaker-latency set, an RB that
// answers in milliseconds after a KWAY that burned 400 ms and failed must not
// be billed KWAY's time. KWAY's breaker trips on its own failure; RB's stays
// closed.
func TestBreakerChargesEachLinkItsOwnTime(t *testing.T) {
	for i, m := range core.Methods {
		if m.Name == "kway" {
			t.Cleanup(func() { core.Methods[i] = m })
			core.Methods[i].Run = func(context.Context, *core.Problem, int, int64, *obs.Registry) (*partition.Partition, error) {
				time.Sleep(400 * time.Millisecond)
				return nil, errors.New("kway stub: slow and broken")
			}
		}
	}
	s := newTestService(t, Config{BreakerFailures: 1, BreakerLatency: 200 * time.Millisecond, BreakerCooldown: time.Hour})
	payload, _, err := s.Partition(context.Background(), Request{Ne: 4, NParts: 6, Method: "kway"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := decodeResponse(t, payload); resp.Strategy != "RB" || len(resp.Attempts) != 1 {
		t.Fatalf("strategy %q after attempts %v, want RB after one KWAY failure", resp.Strategy, resp.Attempts)
	}
	if got := counter(t, s, `partsrv_breaker_state{method="KWAY"}`); got != 1 {
		t.Errorf("breaker KWAY state = %v, want 1 (open: its own failure)", got)
	}
	if got := counter(t, s, `partsrv_breaker_state{method="RB"}`); got != 0 {
		t.Errorf("breaker RB state = %v, want 0 (closed): a healthy link was charged for its predecessor", got)
	}
}
