package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/resilience"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return NewService(cfg)
}

func counter(t *testing.T, s *Service, name string) float64 {
	t.Helper()
	return s.cfg.Registry.Snapshot()[name]
}

func decodeResponse(t *testing.T, payload []byte) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("response payload does not decode: %v", err)
	}
	return resp
}

// validate checks the response's assignment with the independent oracle.
func validate(t *testing.T, resp Response) {
	t.Helper()
	m, err := mesh.New(resp.Ne)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.FromAssignment(resp.Assignment, resp.NParts)
	if err != nil {
		t.Fatalf("assignment does not form a partition: %v", err)
	}
	if err := check.ValidatePartition(g, p); err != nil {
		t.Fatalf("oracle rejects partition: %v", err)
	}
}

// TestThunderingHerd is the acceptance criterion: 64 concurrent identical
// requests must trigger exactly one underlying partition computation —
// verified through the service's own obs counters — and every caller must
// receive the same bytes.
func TestThunderingHerd(t *testing.T) {
	s := newTestService(t, Config{})
	req := Request{Ne: 8, NParts: 16, Method: "kway"}

	const n = 64
	var wg sync.WaitGroup
	payloads := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			payloads[i], _, errs[i] = s.Partition(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(payloads[i], payloads[0]) {
			t.Fatalf("caller %d received different bytes", i)
		}
	}
	if got := counter(t, s, "partsrv_computations_total"); got != 1 {
		t.Errorf("partsrv_computations_total = %v, want exactly 1", got)
	}
	if got := counter(t, s, "partsrv_requests_total"); got != n {
		t.Errorf("partsrv_requests_total = %v, want %d", got, n)
	}
	// Every non-computing caller was answered by the cache (first look or
	// the flight's double-check) or by joining the flight: each request
	// lands in exactly one outcome counter, whatever the interleaving.
	if got := outcomes(t, s); got != n {
		t.Errorf("outcome counters sum to %v, want %d requests", got, n)
	}
	validate(t, decodeResponse(t, payloads[0]))

	// A second round of the same request is now a pure cache hit.
	payload, meta, err := s.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.CacheHit || !bytes.Equal(payload, payloads[0]) {
		t.Errorf("follow-up request missed the cache (meta=%+v)", meta)
	}
	if got := counter(t, s, "partsrv_computations_total"); got != 1 {
		t.Errorf("follow-up recomputed: partsrv_computations_total = %v", got)
	}
}

// outcomes sums the outcome counters — cache hits, joined flights,
// computations, sheds and failures — which partsrv_requests_total equals.
func outcomes(t *testing.T, s *Service) float64 {
	t.Helper()
	var sum float64
	for name, v := range s.cfg.Registry.Snapshot() {
		switch {
		case name == "partsrv_cache_hits_total", name == "partsrv_singleflight_shared_total",
			name == "partsrv_computations_total", name == "partsrv_failures_total",
			strings.HasPrefix(name, "partsrv_shed_total{"):
			sum += v
		}
	}
	return sum
}

// TestDoubleCheckIsACacheHit reaches the flight's double-check
// deterministically: the caller misses the cache, and the entry lands in
// the cache before the caller enters the flight (the flight group's lock is
// held across the Put), as when another flight finishes in between. The
// answer comes from the cache, so the request is one cache hit, with the
// hit in its reply metadata, and nothing is computed or joined.
func TestDoubleCheckIsACacheHit(t *testing.T) {
	req := Request{Ne: 4, NParts: 8, Method: "kway"}
	donor := newTestService(t, Config{})
	want, _, err := donor.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := donor.canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := donor.cache.Get(canon)
	if !ok {
		t.Fatal("donor did not cache its answer")
	}

	s := newTestService(t, Config{})
	s.flight.mu.Lock()
	type answer struct {
		payload []byte
		meta    Meta
		err     error
	}
	done := make(chan answer)
	go func() {
		p, m, err := s.Partition(context.Background(), req)
		done <- answer{p, m, err}
	}()
	for counter(t, s, "partsrv_cache_misses_total") == 0 {
		runtime.Gosched()
	}
	s.cache.Put(canon, e)
	s.flight.mu.Unlock()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !bytes.Equal(got.payload, want) {
		t.Error("double-check answer differs from the cached bytes")
	}
	if got.meta != (Meta{CacheHit: true}) {
		t.Errorf("meta = %+v, want a cache hit", got.meta)
	}
	for name, want := range map[string]float64{
		"partsrv_requests_total": 1, "partsrv_cache_hits_total": 1,
		"partsrv_computations_total": 0, "partsrv_singleflight_shared_total": 0,
	} {
		if v := counter(t, s, name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if got := outcomes(t, s); got != 1 {
		t.Errorf("outcome counters sum to %v for one request", got)
	}
}

// TestDeadlineExpiredDegraded is the other acceptance criterion: a request
// whose compute budget is already spent must still produce a valid
// partition — the O(K) SFC/serpentine ladder — marked degraded, and the
// degraded answer must not poison the cache.
func TestDeadlineExpiredDegraded(t *testing.T) {
	s := newTestService(t, Config{})
	req := Request{Ne: 8, NParts: 16, Method: "kway", DeadlineMS: -1}
	payload, meta, err := s.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Degraded {
		t.Fatal("expired deadline not marked degraded")
	}
	resp := decodeResponse(t, payload)
	if !resp.Degraded {
		t.Error("response body lacks degraded marker")
	}
	if resp.Strategy != string(resilience.StrategySFC) && resp.Strategy != string(resilience.StrategySerpentine) {
		t.Errorf("degraded strategy %s, want SFC or SERPENTINE", resp.Strategy)
	}
	if len(resp.Attempts) == 0 {
		t.Error("degraded response records no abandoned attempts")
	}
	validate(t, resp)
	if got := counter(t, s, "partsrv_degraded_total"); got != 1 {
		t.Errorf("partsrv_degraded_total = %v, want 1", got)
	}
	if s.cache.Len() != 0 {
		t.Error("degraded response was cached")
	}

	// The same request with a sane budget computes fresh (no poisoned
	// cache) and is not degraded.
	req.DeadlineMS = 0
	payload, meta, err = s.Partition(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if meta.CacheHit || meta.Degraded {
		t.Errorf("fresh request after degraded one: meta=%+v", meta)
	}
	if resp := decodeResponse(t, payload); resp.Degraded || resp.Strategy != string(resilience.StrategyKWay) {
		t.Errorf("fresh request degraded=%v strategy=%s, want clean KWAY", resp.Degraded, resp.Strategy)
	}
}

// TestCanonicalization: requests that differ only in representation must
// share one cache entry (content addressing), and requests that differ in
// content must not.
func TestCanonicalization(t *testing.T) {
	s := newTestService(t, Config{})
	ctx := context.Background()

	// sfc is seedless: any seed canonicalizes away.
	seed := int64(77)
	a, _, err := s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "sfc"})
	if err != nil {
		t.Fatal(err)
	}
	b, meta, err := s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "sfc", Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.CacheHit || !bytes.Equal(a, b) {
		t.Error("seed on a seedless method changed the content address")
	}

	// Method aliases canonicalize.
	c, meta, err := s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "serp"})
	if err != nil {
		t.Fatal(err)
	}
	d, meta2, err := s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "serpentine"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.CacheHit || !meta2.CacheHit || !bytes.Equal(c, d) {
		t.Error("method alias serp/serpentine not canonicalized")
	}

	// Every negative max_lb spelling is the same "accept anything".
	lb1, lb2 := -1.0, -42.5
	e, _, err := s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "sfc", MaxLB: &lb1})
	if err != nil {
		t.Fatal(err)
	}
	f, meta, err := s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "sfc", MaxLB: &lb2})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.CacheHit || !bytes.Equal(e, f) {
		t.Error("negative max_lb spellings not canonicalized")
	}

	// An explicit max_lb=0 is different content from the default.
	zero := 0.0
	if _, meta, err = s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "sfc", MaxLB: &zero}); err != nil {
		t.Fatal(err)
	} else if meta.CacheHit {
		t.Error("strict max_lb=0 shared a cache entry with the default gate")
	}

	// Distinct seeds on a seeded method are distinct content.
	s1, s2 := int64(1), int64(2)
	if _, _, err = s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "kway", Seed: &s1}); err != nil {
		t.Fatal(err)
	}
	if _, meta, err = s.Partition(ctx, Request{Ne: 6, NParts: 9, Method: "kway", Seed: &s2}); err != nil {
		t.Fatal(err)
	} else if meta.CacheHit {
		t.Error("distinct kway seeds shared a cache entry")
	}
}

// TestNegativeZeroMaxLBKeepsItsEntry: max_lb -0 and 0 are equal floats, but
// they print differently into the content address, so they are two cache
// entries with two keys. The cache compares canonical requests as values and
// holds max_lb as its bits, which keeps the two apart.
func TestNegativeZeroMaxLBKeepsItsEntry(t *testing.T) {
	s := newTestService(t, Config{})
	zero, negZero := 0.0, math.Copysign(0, -1)
	keys := map[string]bool{}
	for _, lb := range []*float64{&zero, &negZero} {
		payload, meta, err := s.Partition(context.Background(), Request{Ne: 6, NParts: 9, Method: "sfc", MaxLB: lb})
		if err != nil {
			t.Fatal(err)
		}
		if meta.CacheHit {
			t.Errorf("max_lb=%v was answered from the other zero's entry", *lb)
		}
		keys[decodeResponse(t, payload).Key] = true
	}
	if len(keys) != 2 || s.cache.Len() != 2 {
		t.Errorf("max_lb 0 and -0: %d distinct keys, %d cache entries, want 2 and 2", len(keys), s.cache.Len())
	}
}

// TestZeroSeedAndZeroMaxLBExpressible: the HTTP layer preserves the
// absent-vs-zero distinction the resilience fix made expressible.
func TestZeroSeedAndZeroMaxLBExpressible(t *testing.T) {
	s := newTestService(t, Config{})
	zeroSeed := int64(0)
	payload, _, err := s.Partition(context.Background(),
		Request{Ne: 4, NParts: 6, Method: "kway", Seed: &zeroSeed})
	if err != nil {
		t.Fatal(err)
	}
	if resp := decodeResponse(t, payload); resp.Seed != 0 {
		t.Errorf("explicit seed=0 echoed as %d", resp.Seed)
	}

	// max_lb=0 on a problem that cannot balance perfectly: the whole chain
	// is rejected (422 at the HTTP layer), not silently rewritten to 10%.
	zero := 0.0
	_, _, err = s.Partition(context.Background(),
		Request{Ne: 2, NParts: 5, Method: "auto", MaxLB: &zero})
	var ex *resilience.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("strict max_lb=0 on 24 elements / 5 parts: got %v, want *ExhaustedError", err)
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTestService(t, Config{MaxNe: 16})
	cases := []Request{
		{Ne: 0, NParts: 1},
		{Ne: -3, NParts: 1},
		{Ne: 32, NParts: 4},               // over MaxNe
		{Ne: 4, NParts: 0},                // nparts under range
		{Ne: 4, NParts: 97},               // nparts over 6*4*4
		{Ne: 4, NParts: 4, Method: "bog"}, // unknown method
	}
	for _, req := range cases {
		_, _, err := s.Partition(context.Background(), req)
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Errorf("request %+v: got %v, want *BadRequestError", req, err)
		}
	}
	if got := counter(t, s, "partsrv_requests_total"); got != 0 {
		t.Errorf("rejected requests counted as accepted: %v", got)
	}
}

// TestSerpentineAnyNe: Ne outside 2^n 3^m is fine for method=sfc — the
// ladder ends in serpentine, and the answer is not degraded (no deadline
// pressure was involved).
func TestSerpentineAnyNe(t *testing.T) {
	s := newTestService(t, Config{})
	payload, meta, err := s.Partition(context.Background(), Request{Ne: 5, NParts: 10, Method: "sfc"})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, payload)
	if resp.Strategy != string(resilience.StrategySerpentine) {
		t.Errorf("strategy %s, want SERPENTINE", resp.Strategy)
	}
	if resp.Degraded || meta.Degraded {
		t.Error("deterministic serpentine fallback marked degraded")
	}
	if len(resp.Attempts) != 1 {
		t.Errorf("attempts %v, want the single abandoned SFC link", resp.Attempts)
	}
	validate(t, resp)
	// Deterministic fallbacks ARE cacheable.
	if _, meta, err := s.Partition(context.Background(), Request{Ne: 5, NParts: 10, Method: "sfc"}); err != nil || !meta.CacheHit {
		t.Errorf("deterministic fallback not cached (meta=%+v, err=%v)", meta, err)
	}
}

// TestWeightedSFCPassesDefaultGate: at Ne=128, K/8 under hv weights the
// optimal curve split reads LB 0.086, inside the default 0.10 gate, so
// method=sfc answers from its first link. The greedy split it replaced read
// 0.124 on both curve links and the chain ended in ExhaustedError (a 422).
func TestWeightedSFCPassesDefaultGate(t *testing.T) {
	s := newTestService(t, Config{})
	payload, _, err := s.Partition(context.Background(), Request{Ne: 128, NParts: 6 * 128 * 128 / 8, Method: "sfc", WeightsSpec: "hv:amp=16,m=6"})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, payload)
	if resp.Strategy != string(resilience.StrategySFC) || len(resp.Attempts) != 0 {
		t.Errorf("strategy %s after abandoned links %v, want SFC at the first link", resp.Strategy, resp.Attempts)
	}
	if lb := resp.Stats.LBWeighted; lb > 0.10 {
		t.Errorf("LB(weight) %.4f, want <= 0.10", lb)
	}
}

// TestCacheEviction: with room for a single entry, alternating requests
// must recompute every time and the gauges must track the survivor.
func TestCacheEviction(t *testing.T) {
	s := newTestService(t, Config{CacheEntries: 1, CacheBytes: 1 << 20})
	ctx := context.Background()
	reqA := Request{Ne: 4, NParts: 6, Method: "sfc"}
	reqB := Request{Ne: 4, NParts: 8, Method: "sfc"}
	for i := 0; i < 2; i++ {
		if _, _, err := s.Partition(ctx, reqA); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Partition(ctx, reqB); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(t, s, "partsrv_computations_total"); got != 4 {
		t.Errorf("computations = %v, want 4 (every request evicted the other)", got)
	}
	if got := counter(t, s, "partsrv_cache_entries"); got != 1 {
		t.Errorf("partsrv_cache_entries = %v, want 1", got)
	}
}

func TestStatsMatchIndependentOracle(t *testing.T) {
	s := newTestService(t, Config{})
	payload, _, err := s.Partition(context.Background(), Request{Ne: 6, NParts: 8, Method: "rb"})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, payload)
	validate(t, resp)
	m, err := mesh.New(resp.Ne)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.FromAssignment(resp.Assignment, resp.NParts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partition.ComputeStats(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.EdgeCut != want.EdgeCut || resp.Stats.LBNelemd != want.LBNelemd ||
		resp.Stats.TotalCommVolume != want.TotalCommVolume {
		t.Errorf("served stats %+v disagree with recomputation %+v", resp.Stats, want)
	}
}

// TestLargeRegimeRouting: a request at or above LargeNe must route "auto"
// through the SFC-first chain (no multilevel attempt), count on the
// partsrv_large_total metric, and still produce a valid partition. A request
// below the threshold keeps the quality-first chain.
func TestLargeRegimeRouting(t *testing.T) {
	s := newTestService(t, Config{MaxNe: 64, LargeNe: 32})
	// Below threshold: auto resolves to the quality-first chain.
	payload, _, err := s.Partition(context.Background(), Request{Ne: 16, NParts: 12})
	if err != nil {
		t.Fatal(err)
	}
	if resp := decodeResponse(t, payload); resp.Strategy != string(resilience.StrategyKWay) {
		t.Errorf("small auto request used %s, want KWAY", resp.Strategy)
	}
	if got := counter(t, s, "partsrv_large_total"); got != 0 {
		t.Errorf("partsrv_large_total = %v after a small request", got)
	}
	// At threshold: auto resolves to SFC without any abandoned attempts
	// (routing, not degradation).
	payload, meta, err := s.Partition(context.Background(), Request{Ne: 32, NParts: 24})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, payload)
	if resp.Strategy != string(resilience.StrategySFC) {
		t.Errorf("large auto request used %s, want SFC", resp.Strategy)
	}
	if resp.Degraded || meta.Degraded || len(resp.Attempts) != 0 {
		t.Errorf("large-regime routing marked degraded: %+v", resp)
	}
	validate(t, resp)
	if got := counter(t, s, "partsrv_large_total"); got != 1 {
		t.Errorf("partsrv_large_total = %v, want 1", got)
	}
}

// TestLargeRegimeExplicitMethodUnchanged: the large regime rewires only
// "auto" — an explicit method keeps its own ladder.
func TestLargeRegimeExplicitMethodUnchanged(t *testing.T) {
	s := newTestService(t, Config{MaxNe: 64, LargeNe: 32})
	payload, _, err := s.Partition(context.Background(), Request{Ne: 32, NParts: 24, Method: "rb"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := decodeResponse(t, payload); resp.Strategy != string(resilience.StrategyRB) {
		t.Errorf("explicit rb at large Ne used %s", resp.Strategy)
	}
	if got := counter(t, s, "partsrv_large_total"); got != 1 {
		t.Errorf("partsrv_large_total = %v, want 1 (explicit methods still count)", got)
	}
}

// TestLargeRegimeDisabled: negative LargeNe turns the regime off entirely.
func TestLargeRegimeDisabled(t *testing.T) {
	s := newTestService(t, Config{MaxNe: 64, LargeNe: -1})
	payload, _, err := s.Partition(context.Background(), Request{Ne: 32, NParts: 12})
	if err != nil {
		t.Fatal(err)
	}
	if resp := decodeResponse(t, payload); resp.Strategy != string(resilience.StrategyKWay) {
		t.Errorf("regime disabled but auto used %s", resp.Strategy)
	}
	if got := counter(t, s, "partsrv_large_total"); got != 0 {
		t.Errorf("partsrv_large_total = %v with regime disabled", got)
	}
}

// TestLaddersMatchLiteralChains: the degradation ladders the service derives
// from resilience.DefaultChain and core's method table equal, method for
// method, the literal map they replaced — and every accepted spelling lands
// on one of them.
func TestLaddersMatchLiteralChains(t *testing.T) {
	kway, rb, sfc, serp := resilience.StrategyKWay, resilience.StrategyRB, resilience.StrategySFC, resilience.StrategySerpentine
	want := map[string][]resilience.Strategy{
		"auto":       {kway, rb, sfc, serp},
		"kway":       {kway, rb, sfc, serp},
		"rb":         {rb, sfc, serp},
		"sfc":        {sfc, serp},
		"serpentine": {serp},
	}
	if !reflect.DeepEqual(ladders, want) {
		t.Errorf("ladders = %v, want %v", ladders, want)
	}
	s := newTestService(t, Config{})
	for spelling, method := range map[string]string{
		"": "auto", "auto": "auto", "kway": "kway", "metis": "kway", "tv": "kway", "KWAY": "kway",
		"rb": "rb", "sfc": "sfc", "serp": "serpentine", "serpentine": "serpentine",
	} {
		canon, err := s.canonicalize(Request{Ne: 4, NParts: 4, Method: spelling})
		if err != nil || canon.Method != method {
			t.Errorf("method %q canonicalized to %q, %v; want %q", spelling, canon.Method, err, method)
		}
		if seedless := method == "sfc" || method == "serpentine"; seedless != (canon.Seed == 0) {
			t.Errorf("method %q: canonical seed %d", spelling, canon.Seed)
		}
	}
}
