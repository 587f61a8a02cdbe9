package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every metric operation and registry constructor must be
// a no-op on nil receivers — that is the disabled fast path the hot
// loops rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metrics, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	r.Help("c", "text")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var tr *RunTrace
	tr.Record(Event{Kind: EvStep})
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace must be inert")
	}
}

// TestCounterGauge covers the basic metric semantics.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("requests_total"); again != c {
		t.Fatal("same name must return the same counter instance")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Set(5)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

// TestKindMismatchPanics: re-registering a name as a different type is a
// programming error and must fail loudly at setup time.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

// TestHistogramBuckets pins the power-of-two bucket boundaries, including
// the edge cases: zero and negatives land in bucket 0 (le="0"),
// MaxInt64 lands in the +Inf bucket, and exact powers of two sit in the
// bucket whose upper bound is 2^k - 1 < v <= ... i.e. the next bucket.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {-1, 0}, {math.MinInt64, 0},
		{1, 1},         // le="1"
		{2, 2}, {3, 2}, // le="3"
		{4, 3}, {7, 3}, // le="7"
		{8, 4},
		{1 << 20, 21},
		{math.MaxInt64, histBuckets - 1}, // +Inf bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if !math.IsInf(BucketBound(histBuckets-1), 1) {
		t.Fatal("last bucket bound must be +Inf")
	}
	if BucketBound(0) != 0 || BucketBound(1) != 1 || BucketBound(3) != 7 {
		t.Fatal("bucket bounds must be 2^i - 1")
	}
	// Bound/bucket consistency: every positive v satisfies
	// BucketBound(bucketOf(v)-1) < v <= BucketBound(bucketOf(v)).
	for _, v := range []int64{1, 2, 3, 5, 8, 1023, 1024, 1025, math.MaxInt64} {
		i := bucketOf(v)
		if float64(v) > BucketBound(i) {
			t.Errorf("v=%d above its bucket bound %v", v, BucketBound(i))
		}
		if i > 0 && float64(v) <= BucketBound(i-1) {
			t.Errorf("v=%d below its bucket's lower edge", v)
		}
	}
}

// TestHistogramBatch: a batch folds into the backing histogram exactly as
// direct Observes would, flush resets it, re-use works, empty flush and
// nil batch are no-ops, and concurrent per-writer batches merge cleanly.
func TestHistogramBatch(t *testing.T) {
	direct, batched := &Histogram{}, &Histogram{}
	vals := []int64{0, -5, 1, 3, 7, 1024, math.MaxInt64}
	b := batched.Batch()
	for _, v := range vals {
		direct.Observe(v)
		b.Observe(v)
	}
	if batched.Count() != 0 {
		t.Fatal("unflushed batch must not be visible")
	}
	b.Flush()
	b.Flush() // empty flush: no double-count
	if batched.Count() != direct.Count() || batched.Sum() != direct.Sum() {
		t.Fatalf("batch totals %d/%d, direct %d/%d",
			batched.Count(), batched.Sum(), direct.Count(), direct.Sum())
	}
	if batched.snapshotBuckets() != direct.snapshotBuckets() {
		t.Fatal("batched buckets differ from direct buckets")
	}
	// Re-use after flush.
	b.Observe(42)
	b.Flush()
	if batched.Count() != direct.Count()+1 {
		t.Fatal("batch not reusable after flush")
	}
	// Nil paths: nil histogram yields nil batch, whose methods no-op.
	var nilH *Histogram
	nb := nilH.Batch()
	nb.Observe(7)
	nb.Flush()

	// Concurrent writers, one batch each (the runner's usage pattern).
	shared := &Histogram{}
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wb := shared.Batch()
			for i := 0; i < per; i++ {
				wb.Observe(int64(w*per + i))
			}
			wb.Flush()
		}(w)
	}
	wg.Wait()
	if shared.Count() != workers*per {
		t.Fatalf("concurrent batch count = %d, want %d", shared.Count(), workers*per)
	}
}

// TestPrometheusGolden golds the full text exposition: stable ordering
// (sorted by name then label set), HELP/TYPE lines, label escaping, and
// the cumulative histogram rendering with _sum/_count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("seam_steps_total", "completed RK4 steps")
	r.Counter("seam_steps_total").Add(12)
	r.Gauge("seam_rank_busy_ns", "rank", "1").Set(250)
	r.Gauge("seam_rank_busy_ns", "rank", "0").Set(100)
	h := r.Histogram("metis_coarse_size")
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	h.Observe(900)
	r.Counter("escaped_total", "path", "a\"b\\c\nd").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE escaped_total counter
escaped_total{path="a\"b\\c\nd"} 1
# TYPE metis_coarse_size histogram
metis_coarse_size_bucket{le="0"} 1
metis_coarse_size_bucket{le="1"} 1
metis_coarse_size_bucket{le="3"} 3
metis_coarse_size_bucket{le="7"} 3
metis_coarse_size_bucket{le="15"} 3
metis_coarse_size_bucket{le="31"} 3
metis_coarse_size_bucket{le="63"} 3
metis_coarse_size_bucket{le="127"} 3
metis_coarse_size_bucket{le="255"} 3
metis_coarse_size_bucket{le="511"} 3
metis_coarse_size_bucket{le="1023"} 4
metis_coarse_size_bucket{le="+Inf"} 4
metis_coarse_size_sum 906
metis_coarse_size_count 4
# TYPE seam_rank_busy_ns gauge
seam_rank_busy_ns{rank="0"} 100
seam_rank_busy_ns{rank="1"} 250
# HELP seam_steps_total completed RK4 steps
# TYPE seam_steps_total counter
seam_steps_total 12
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The exposition must be byte-stable across repeated renders.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Fatal("exposition is not deterministic across renders")
	}
}

// TestSnapshot checks the flat map exposition used by telemetry.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b", "k", "v").Set(-7)
	h := r.Histogram("h_ns")
	h.Observe(10)
	h.Observe(20)
	snap := r.Snapshot()
	want := map[string]float64{
		"a_total": 3, `b{k="v"}`: -7, "h_ns_count": 2, "h_ns_sum": 30,
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d: %v", len(snap), len(want), snap)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
}

// TestConcurrentMetrics hammers one counter/gauge/histogram from many
// goroutines while a reader renders the exposition; run under -race this
// is the data-race oracle for the whole metrics layer.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}
