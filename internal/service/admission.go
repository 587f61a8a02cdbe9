package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"sfccube/internal/obs"
)

// ErrQueueTimeout is the sentinel behind every admission shed caused by the
// caller's own clock: the request's context expired (or was cancelled)
// before a worker freed up, so the work was never started. Match with
// errors.Is; the concrete *QueueTimeoutError carries the cause and the
// Retry-After hint.
var ErrQueueTimeout = errors.New("service: request expired while queued for a worker")

// QueueTimeoutError is the concrete shed error behind ErrQueueTimeout.
type QueueTimeoutError struct {
	// Cause is the context error that ended the wait.
	Cause error
	// RetryAfter is the server's back-off hint.
	RetryAfter time.Duration
}

func (e *QueueTimeoutError) Error() string {
	return fmt.Sprintf("%v: %v", ErrQueueTimeout, e.Cause)
}

func (e *QueueTimeoutError) Is(target error) bool { return target == ErrQueueTimeout }
func (e *QueueTimeoutError) Unwrap() error        { return e.Cause }

// QueueFullError reports a request shed because the admission queue already
// holds its configured maximum of waiters. The HTTP layer maps it to 429
// with a Retry-After header.
type QueueFullError struct {
	// Depth is the queue bound that was hit.
	Depth int
	// RetryAfter is the server's back-off hint.
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: admission queue full (%d already waiting)", e.Depth)
}

// DeadlineTooShortError reports a request shed before queueing because its
// remaining deadline could not cover the route's observed median service
// time — admitting it would burn a worker on an answer the caller will
// never see. The HTTP layer maps it to 503 with a Retry-After header.
type DeadlineTooShortError struct {
	// Route is the canonical method whose estimate was consulted.
	Route string
	// Remaining is the caller's budget at admission time.
	Remaining time.Duration
	// Need is the observed p50 service time for the route.
	Need time.Duration
	// RetryAfter is the server's back-off hint.
	RetryAfter time.Duration
}

func (e *DeadlineTooShortError) Error() string {
	return fmt.Sprintf("service: remaining deadline %v below observed p50 %v for method %q",
		e.Remaining.Round(time.Microsecond), e.Need.Round(time.Microsecond), e.Route)
}

// isShed reports whether err is an admission shed — deliberate
// back-pressure, not a service failure (excluded from partsrv_failures_total).
func isShed(err error) bool {
	var qf *QueueFullError
	var ds *DeadlineTooShortError
	return errors.Is(err, ErrQueueTimeout) || errors.As(err, &qf) || errors.As(err, &ds)
}

// admitter is the bounded admission queue in front of the worker pool. It
// replaces the bare `sem <- struct{}{}` send, which had two failure modes
// under overload: an unbounded crowd of blocked goroutines, and workers
// wasted on requests whose callers had already hung up.
type admitter struct {
	sem        chan struct{} // worker slots
	waiters    chan struct{} // queue slots
	retryAfter time.Duration
	depth      *obs.Gauge
	waitNs     *obs.Histogram
}

func newAdmitter(workers, queueDepth int, retryAfter time.Duration, depth *obs.Gauge, waitNs *obs.Histogram) *admitter {
	return &admitter{
		sem:        make(chan struct{}, workers),
		waiters:    make(chan struct{}, queueDepth),
		retryAfter: retryAfter,
		depth:      depth,
		waitNs:     waitNs,
	}
}

// acquire claims a worker slot, queueing within the depth bound while ctx
// lives. An already-expired ctx never touches the pool, a full queue sheds
// immediately, and a ctx that dies mid-wait abandons the slot claim.
func (a *admitter) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		// The regression this type exists for: a request that is already
		// dead must not consume a worker slot even when the pool is idle.
		return &QueueTimeoutError{Cause: err, RetryAfter: a.retryAfter}
	}
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case a.waiters <- struct{}{}:
	default:
		return &QueueFullError{Depth: cap(a.waiters), RetryAfter: a.retryAfter}
	}
	a.depth.Set(int64(len(a.waiters)))
	start := time.Now()
	defer func() {
		<-a.waiters
		a.depth.Set(int64(len(a.waiters)))
	}()
	select {
	case a.sem <- struct{}{}:
		a.waitNs.Observe(time.Since(start).Nanoseconds())
		return nil
	case <-ctx.Done():
		return &QueueTimeoutError{Cause: ctx.Err(), RetryAfter: a.retryAfter}
	}
}

func (a *admitter) release() { <-a.sem }

// latWindow is the sliding sample count behind each route's p50 estimate —
// small enough to track regime changes, large enough to ride out noise.
const latWindow = 64

// latEstimator is a fixed-window service-time estimator, one per route.
type latEstimator struct {
	mu    sync.Mutex
	ring  [latWindow]time.Duration
	n     int
	gauge *obs.Gauge // the route's published p50, resolved by the first record
}

func (e *latEstimator) observe(d time.Duration) {
	e.mu.Lock()
	e.ring[e.n%latWindow] = d
	e.n++
	e.mu.Unlock()
}

// p50 returns the median of the window, or 0 before any sample (the
// estimator never sheds blind). It sorts a stack copy of the window and
// does not allocate.
func (e *latEstimator) p50() time.Duration {
	e.mu.Lock()
	win, k := e.ring, min(e.n, latWindow)
	e.mu.Unlock()
	if k == 0 {
		return 0
	}
	slices.Sort(win[:k])
	return win[k/2]
}

// record observes one representative sample of route and publishes the new
// median to the route's gauge in reg. The gauge is resolved on the route's
// first sample, so the series appears in /metrics only once the route has
// one, and later samples allocate nothing.
func (e *latEstimator) record(d time.Duration, reg *obs.Registry, route string) {
	e.observe(d)
	e.mu.Lock()
	if e.gauge == nil {
		e.gauge = reg.Gauge("partsrv_admission_p50_ns", "route", route)
	}
	g := e.gauge
	e.mu.Unlock()
	g.Set(int64(e.p50()))
}

// admit gates one computation: shed when the caller's remaining deadline
// cannot cover the route's observed p50, shed when the queue is full, queue
// otherwise. Shed reasons are counted under partsrv_shed_total.
func (s *Service) admit(ctx context.Context, route string) error {
	if d, ok := ctx.Deadline(); ok {
		if p50 := s.estimates[route].p50(); p50 > 0 {
			if remaining := time.Until(d); remaining < p50 {
				s.shedDeadline.Inc()
				return &DeadlineTooShortError{
					Route: route, Remaining: remaining, Need: p50,
					RetryAfter: s.adm.retryAfter,
				}
			}
		}
	}
	err := s.adm.acquire(ctx)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueTimeout):
		s.shedCancelled.Inc()
	default:
		s.shedFull.Inc()
	}
	return err
}
