// Package obs is the observability layer: typed atomic metrics
// (Counter/Gauge/Histogram), a Registry with Prometheus-text and JSON
// exposition, and a bounded structured run trace (RunTrace).
//
// The package is engineered so that instrumentation threaded through hot
// paths costs nothing measurable when disabled and very little when
// enabled:
//
//   - every metric method is nil-safe: calling Add/Set/Observe on a nil
//     metric (or asking a nil *Registry for one) is a predictable branch
//     and nothing else, so call sites need no "if enabled" guards;
//   - enabled metrics are single atomic adds on cache-line-padded words
//     (no locks, no maps, no allocation on the hot path);
//   - histograms use fixed power-of-two buckets, so Observe is a
//     bits.Len64 plus two atomic adds.
//
// Exposition (WritePrometheus, Snapshot) takes the registry
// lock but only walks immutable metric handles, so it can run while the
// instrumented code is mid-flight; values are read with atomic loads.
//
// The deterministic-ordering mode of RunTrace (the Deterministic field,
// a.k.a. ObsDeterministic in the design docs) makes same-seed runs emit
// deeply-equal event streams at any GOMAXPROCS, which is what lets tests
// gold them; see trace.go.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// pad is the tail padding that keeps one metric per cache line, so
// per-rank metric vectors do not false-share under concurrent writers.
// 64 bytes would suffice on most x86; 128 covers the spatial prefetcher
// pair-line effects.
type pad [120]byte

// Counter is a monotonically increasing int64 metric. All methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
	_ pad
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the value to remain monotone; this is
// not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (a level, not a rate): bytes in
// flight, busy nanoseconds of the last completed step, queue depth.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 holds v <= 0, bucket 63 is the overflow (+Inf) bucket.
const histBuckets = 64

// Histogram is a power-of-two-bucket histogram of int64 observations
// (typically nanoseconds or bytes). Observe is two atomic adds plus a
// bits.Len64; buckets are exposed in the Prometheus cumulative-le
// convention with upper bounds 2^i - 1. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	_       pad
}

// bucketOf returns the bucket index of v: 0 for v <= 0 (upper bound 0),
// bits.Len64(v) for positive v, clamped to the +Inf bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i:
// 2^i - 1 for i < 63, +Inf for the last bucket.
func BucketBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// HistogramBatch accumulates observations for a single writer without any
// atomic operations and folds them into the backing Histogram on Flush.
// Use one batch per worker goroutine when a hot loop would otherwise issue
// thousands of contended Observes between synchronisation points (the SEAM
// runner records 384 ranks x 4 stages x 2 phases per step into shared
// histograms; batching turns ~9k contended RMWs per step into a handful of
// atomic adds per worker per step). A batch is NOT safe for concurrent
// use; Flush is safe to call concurrently with other batches' flushes and
// with scrapes. All methods are no-ops on a nil receiver.
type HistogramBatch struct {
	h       *Histogram
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

// Batch returns a new local accumulation batch backed by h (nil on a nil
// receiver, whose methods then no-op — callers need no enabled-guards).
func (h *Histogram) Batch() *HistogramBatch {
	if h == nil {
		return nil
	}
	return &HistogramBatch{h: h}
}

// Observe records one value locally (no atomics).
func (b *HistogramBatch) Observe(v int64) {
	if b == nil {
		return
	}
	b.count++
	b.sum += v
	b.buckets[bucketOf(v)]++
}

// Flush folds the accumulated observations into the backing Histogram and
// resets the batch. A flush of an empty batch is a single branch.
func (b *HistogramBatch) Flush() {
	if b == nil || b.count == 0 {
		return
	}
	b.h.count.Add(b.count)
	b.h.sum.Add(b.sum)
	for i := range b.buckets {
		if c := b.buckets[i]; c != 0 {
			b.h.buckets[i].Add(c)
			b.buckets[i] = 0
		}
	}
	b.count, b.sum = 0, 0
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshotBuckets returns a copy of the raw (non-cumulative) bucket
// counts. Safe to call concurrently with Observe; the copy is not an
// atomic cross-bucket snapshot (standard for live scrapes).
func (h *Histogram) snapshotBuckets() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}
