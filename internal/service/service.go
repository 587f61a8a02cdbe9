package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/resilience"
	"sfccube/internal/weights"
)

// Request is the wire form of a partition request. Seed and MaxLB are
// pointers so that "absent" and "zero" stay distinguishable at the HTTP
// boundary (the same conflation the resilience layer was just cured of):
// an absent field takes the documented default, an explicit 0 means 0.
type Request struct {
	// Ne is the cube-face edge dimension; the mesh has 6*Ne*Ne elements.
	Ne int `json:"ne"`
	// NParts is the number of partitions, in [1, 6*Ne*Ne].
	NParts int `json:"nparts"`
	// Method is the partitioner: "auto" (quality-first fallback chain,
	// the default), "kway", "rb", "sfc" or "serpentine", case-insensitively.
	// Aliases: "" = auto, "metis" = kway, "serp" = serpentine, "tv" = kway
	// (the chain has no communication-volume link).
	Method string `json:"method,omitempty"`
	// Seed seeds the METIS-style methods (absent = resilience.DefaultSeed).
	// Ignored — and canonicalized away — for the deterministic seedless
	// methods sfc and serpentine.
	Seed *int64 `json:"seed,omitempty"`
	// MaxLB is the accepted load balance LB(nelemd): absent =
	// resilience.DefaultMaxLB, 0 = perfect balance only, negative =
	// accept anything.
	MaxLB *float64 `json:"max_lb,omitempty"`
	// DeadlineMS is the compute budget in milliseconds: 0 = the server
	// default, > 0 = that budget, < 0 = already expired (the request
	// jumps straight to the O(K) degradation ladder and is marked
	// degraded). The deadline never fails a request — it only lowers the
	// quality of the answer.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// WeightsSpec selects a per-element computation-weight generator in the
	// internal/weights grammar ("cfl", "hv:amp=16,m=6", ...); every chain
	// link then balances total element weight instead of counts. Absent or
	// "uniform" means unit cost. The spec is normalised to its canonical
	// spelling before it enters the cache key, so equivalent spellings
	// share one entry.
	WeightsSpec string `json:"weights_spec,omitempty"`
}

// canonicalRequest is a Request after validation and normalization — the
// content of an answer, and the key of the cache and the singleflight, which
// compare it as a value. DeadlineMS is deliberately excluded: the deadline
// changes how long the answer may take, never what the answer is (degraded
// results are not cached).
type canonicalRequest struct {
	Ne     int
	NParts int
	Method string
	Seed   int64
	MaxLB  uint64 // as IEEE bits, so -0 and 0, two content addresses, stay two keys
	// Weights is the canonical weight-spec spelling; "" means uniform (the
	// absent and "uniform" spellings both canonicalize to it).
	Weights string
}

// key returns the content address, the SHA-256 of the canonical encoding.
func (c canonicalRequest) key() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"ne=%d&nparts=%d&method=%s&seed=%d&max_lb=%s&weights=%s",
		c.Ne, c.NParts, c.Method, c.Seed,
		strconv.FormatFloat(math.Float64frombits(c.MaxLB), 'g', -1, 64), c.Weights)))
	return hex.EncodeToString(h[:])
}

// ladders maps each canonical method the service accepts to its degradation
// ladder: the suffix of resilience.DefaultChain starting at that method, so
// ever cheaper strategies ending in SERPENTINE, which accepts any Ne. "auto"
// walks the whole chain. A weighted request can fail the balance gate on
// every link and end in *resilience.ExhaustedError, 422 (ROADMAP item 7(c)).
var ladders = func() map[string][]resilience.Strategy {
	out := map[string][]resilience.Strategy{"auto": resilience.DefaultChain}
	for i, st := range resilience.DefaultChain {
		m, _ := core.LookupMethod(string(st))
		out[m.Name] = resilience.DefaultChain[i:]
	}
	return out
}()

// wireAliases are the spellings only the wire protocol knows, resolved before
// core's method table (which owns metis = kway and serp = serpentine): an
// absent method is auto, and tv is served by kway — the chain has no TV link.
var wireAliases = map[string]string{"": "auto", "tv": "kway"}

// BadRequestError reports a request rejected by validation; the HTTP layer
// maps it to 400.
type BadRequestError struct{ Reason string }

func (e *BadRequestError) Error() string { return "service: bad request: " + e.Reason }

// Response is a completed partition request. It is exactly the bytes the
// cache stores: everything in it is a pure function of the canonical
// request, except Degraded/Attempts, which only ever appear on uncached
// (deadline-pressured) answers.
type Response struct {
	// Key is the content address of the canonical request.
	Key string `json:"key"`
	// Ne, NParts, Method and Seed echo the canonical request.
	Ne     int    `json:"ne"`
	NParts int    `json:"nparts"`
	Method string `json:"method"`
	Seed   int64  `json:"seed"`
	// WeightsSpec echoes the canonical weight-spec spelling; absent on
	// unit-cost requests.
	WeightsSpec string `json:"weights_spec,omitempty"`
	// Strategy is the fallback-chain link that produced the partition
	// (equal to the requested method unless the chain degraded past it).
	Strategy string `json:"strategy"`
	// Degraded marks a result produced under deadline pressure: at least
	// one higher-quality link was cancelled by the compute budget.
	// Degraded responses are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// Attempts lists the abandoned chain links, in order.
	Attempts []string `json:"attempts,omitempty"`
	// BreakerSkipped lists the chain links the walk reached and an open
	// circuit breaker refused. Like Degraded it reflects transient server
	// state, so responses carrying it are never cached.
	BreakerSkipped []string `json:"breaker_skipped,omitempty"`
	// Stats are the paper's Table-2 quality metrics for the partition.
	Stats partition.Stats `json:"stats"`
	// Assignment maps element id → part.
	Assignment []int32 `json:"assignment,omitempty"`
}

// Meta is the per-call envelope around a response payload: everything that
// varies between two requests for the same content.
type Meta struct {
	CacheHit bool
	Shared   bool // joined another caller's in-flight computation
	Degraded bool
	// BreakerOpen marks a response computed with at least one chain link
	// short-circuited by an open breaker.
	BreakerOpen bool
}

// Config sizes a Service. Zero values take the documented defaults.
type Config struct {
	// MaxNe bounds accepted problem sizes (memory guard). The zero value
	// means 128 (~98k elements), below LargeNe, so a zero-value Config never
	// takes the large route; the partsrv flag -max-ne defaults to 384 and
	// the repository benchmark passes 384, so both do.
	MaxNe int
	// Workers bounds concurrent partition computations (default
	// GOMAXPROCS).
	Workers int
	// CacheBytes / CacheEntries bound the response cache (defaults 64 MiB
	// / 4096 entries).
	CacheBytes   int64
	CacheEntries int
	// DefaultDeadline is the compute budget applied when a request
	// carries none; 0 means unbounded.
	DefaultDeadline time.Duration
	// LargeNe is the threshold at or above which a request enters the
	// large-problem regime: "auto" resolves to the SFC-first chain
	// (linear-time cuts instead of multilevel refinement) and LargeDeadline
	// applies. (The mesh resolves adjacency on demand at every size; that is
	// not a property of this regime.) Default 256 (393k elements); negative
	// disables the regime entirely.
	LargeNe int
	// LargeDeadline is the compute budget for large-regime requests that
	// carry none; 0 falls back to DefaultDeadline.
	LargeDeadline time.Duration
	// QueueDepth bounds how many computations may wait for a worker before
	// new arrivals are shed with a 429. 0 means the default 64; negative
	// means no waiting at all (shed the moment the pool is busy).
	QueueDepth int
	// RetryAfter is the back-off hint attached to shed responses
	// (default 1s).
	RetryAfter time.Duration
	// BreakerFailures is the consecutive-failure count that trips a
	// per-method circuit breaker on the multilevel strategies (KWAY, RB).
	// 0 means the default 5; negative disables the breakers.
	BreakerFailures int
	// BreakerLatency is the per-computation latency budget; a successful
	// compute slower than this counts as a breaker failure. 0 disables the
	// latency trip.
	BreakerLatency time.Duration
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// DefaultWeights is the weight spec (internal/weights grammar) applied
	// to requests that carry no weights_spec — the server's default load
	// model. Empty means uniform cost. The value must parse; partsrv
	// validates it at startup. An explicit "uniform" on a request always
	// overrides it back to unit cost.
	DefaultWeights string
	// Registry receives the service metrics; nil disables them (nil-safe
	// handles).
	Registry *obs.Registry
}

// Service is the partition engine: canonicalize → cache → singleflight →
// bounded compute with graceful degradation. One instance serves all
// endpoints of a partsrv process.
type Service struct {
	cfg       Config
	cache     *Cache
	flight    flightGroup
	adm       *admitter
	estimates map[string]*latEstimator
	breakers  map[resilience.Strategy]*resilience.Breaker

	reqs          *obs.Counter
	computations  *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	sfShared      *obs.Counter
	degraded      *obs.Counter
	failures      *obs.Counter
	large         *obs.Counter
	shedFull      *obs.Counter
	shedDeadline  *obs.Counter
	shedCancelled *obs.Counter
	computeNs     *obs.Histogram
	cacheBytes    *obs.Gauge
	cacheEntries  *obs.Gauge
}

// NewService builds a Service from cfg.
func NewService(cfg Config) *Service {
	if cfg.MaxNe <= 0 {
		cfg.MaxNe = 128
	}
	if cfg.LargeNe == 0 {
		cfg.LargeNe = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	queueDepth := cfg.QueueDepth
	if queueDepth == 0 {
		queueDepth = 64
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	breakerFailures := cfg.BreakerFailures
	if breakerFailures == 0 {
		breakerFailures = 5
	}
	breakerCooldown := cfg.BreakerCooldown
	if breakerCooldown <= 0 {
		breakerCooldown = 2 * time.Second
	}
	reg := cfg.Registry
	reg.Help("partsrv_requests_total", "Partition requests accepted by the engine (all endpoints).")
	reg.Help("partsrv_computations_total", "Partition computations actually executed (cache misses that won the singleflight).")
	reg.Help("partsrv_cache_hits_total", "Requests answered from the content-addressed cache.")
	reg.Help("partsrv_cache_misses_total", "Requests whose first cache lookup missed (a miss the flight's double-check answers is also a hit).")
	reg.Help("partsrv_singleflight_shared_total", "Requests that joined another caller's in-flight computation.")
	reg.Help("partsrv_degraded_total", "Responses produced under deadline pressure (fallback past the requested method).")
	reg.Help("partsrv_failures_total", "Requests that failed after validation (exhausted chains, internal errors).")
	reg.Help("partsrv_large_total", "Computations routed through the large-problem regime (SFC-first auto chain, LargeDeadline).")
	reg.Help("partsrv_compute_ns", "Wall time of executed partition computations.")
	reg.Help("partsrv_cache_bytes", "Current response-cache size: documents plus chunk offsets.")
	reg.Help("partsrv_cache_entries", "Current response-cache entry count.")
	reg.Help("partsrv_queue_depth", "Computations currently waiting for a worker slot.")
	reg.Help("partsrv_queue_wait_ns", "Time admitted computations spent queued for a worker.")
	reg.Help("partsrv_shed_total", "Requests shed by admission control, by reason (queue_full, deadline, cancelled).")
	reg.Help("partsrv_breaker_state", "Per-method circuit-breaker state (0 closed, 1 open, 2 half-open).")
	reg.Help("partsrv_breaker_transitions_total", "Circuit-breaker state transitions, by method and target state.")
	reg.Help("partsrv_breaker_short_circuits_total", "Chain links skipped because their breaker was open.")
	reg.Help("partsrv_admission_p50_ns", "Observed median compute service time, by route (admission shed threshold).")
	s := &Service{
		cfg:   cfg,
		cache: NewCache(cfg.CacheBytes, cfg.CacheEntries),
		adm: newAdmitter(cfg.Workers, queueDepth, cfg.RetryAfter,
			reg.Gauge("partsrv_queue_depth"), reg.Histogram("partsrv_queue_wait_ns")),
		estimates:     make(map[string]*latEstimator, len(ladders)),
		reqs:          reg.Counter("partsrv_requests_total"),
		computations:  reg.Counter("partsrv_computations_total"),
		cacheHits:     reg.Counter("partsrv_cache_hits_total"),
		cacheMisses:   reg.Counter("partsrv_cache_misses_total"),
		sfShared:      reg.Counter("partsrv_singleflight_shared_total"),
		degraded:      reg.Counter("partsrv_degraded_total"),
		failures:      reg.Counter("partsrv_failures_total"),
		large:         reg.Counter("partsrv_large_total"),
		shedFull:      reg.Counter("partsrv_shed_total", "reason", "queue_full"),
		shedDeadline:  reg.Counter("partsrv_shed_total", "reason", "deadline"),
		shedCancelled: reg.Counter("partsrv_shed_total", "reason", "cancelled"),
		computeNs:     reg.Histogram("partsrv_compute_ns"),
		cacheBytes:    reg.Gauge("partsrv_cache_bytes"),
		cacheEntries:  reg.Gauge("partsrv_cache_entries"),
	}
	for method := range ladders {
		s.estimates[method] = &latEstimator{}
	}
	if breakerFailures > 0 {
		s.breakers = make(map[resilience.Strategy]*resilience.Breaker, 2)
		for _, st := range []resilience.Strategy{resilience.StrategyKWay, resilience.StrategyRB} {
			method := string(st)
			stateGauge := reg.Gauge("partsrv_breaker_state", "method", method)
			s.breakers[st] = resilience.NewBreaker(resilience.BreakerConfig{
				FailureThreshold: breakerFailures,
				LatencyBudget:    cfg.BreakerLatency,
				Cooldown:         breakerCooldown,
				OnTransition: func(_, to resilience.BreakerState) {
					stateGauge.Set(int64(to))
					reg.Counter("partsrv_breaker_transitions_total", "method", method, "to", to.String()).Inc()
				},
			})
		}
	}
	return s
}

// canonicalize validates req against the service bounds and resolves the
// absent-vs-zero fields into the canonical form.
func (s *Service) canonicalize(req Request) (canonicalRequest, error) {
	method := strings.ToLower(req.Method)
	if a, ok := wireAliases[method]; ok {
		method = a
	}
	seeded := true // auto may land on a seeded link
	if m, ok := core.LookupMethod(method); ok {
		method, seeded = m.Name, m.Seeded
	}
	if _, ok := ladders[method]; !ok {
		return canonicalRequest{}, &BadRequestError{Reason: fmt.Sprintf("unknown method %q", req.Method)}
	}
	if req.Ne < 1 {
		return canonicalRequest{}, &BadRequestError{Reason: fmt.Sprintf("ne=%d out of range [1,%d]", req.Ne, s.cfg.MaxNe)}
	}
	if req.Ne > s.cfg.MaxNe {
		return canonicalRequest{}, &BadRequestError{Reason: fmt.Sprintf("ne=%d exceeds this server's limit %d", req.Ne, s.cfg.MaxNe)}
	}
	k := 6 * req.Ne * req.Ne
	if req.NParts < 1 || req.NParts > k {
		return canonicalRequest{}, &BadRequestError{Reason: fmt.Sprintf("nparts=%d out of range [1,%d] for ne=%d", req.NParts, k, req.Ne)}
	}
	seed := resilience.DefaultSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	if !seeded {
		seed = 0 // sfc/serpentine are deterministic: all seeds share one entry
	}
	maxLB := resilience.DefaultMaxLB
	if req.MaxLB != nil {
		maxLB = *req.MaxLB
	}
	if math.IsNaN(maxLB) || math.IsInf(maxLB, 0) {
		return canonicalRequest{}, &BadRequestError{Reason: "max_lb must be finite"}
	}
	if maxLB < 0 {
		maxLB = -1 // every "accept anything" spelling is the same content
	}
	rawSpec := req.WeightsSpec
	if rawSpec == "" {
		rawSpec = s.cfg.DefaultWeights
	}
	wspec, err := weights.Parse(rawSpec)
	if err != nil {
		return canonicalRequest{}, &BadRequestError{Reason: "weights_spec: " + err.Error()}
	}
	ws := ""
	if !wspec.IsUniform() {
		ws = wspec.String()
	}
	return canonicalRequest{Ne: req.Ne, NParts: req.NParts, Method: method, Seed: seed, MaxLB: math.Float64bits(maxLB), Weights: ws}, nil
}

// Partition answers req: from the cache when possible, otherwise by joining
// or starting a singleflight computation on the bounded worker pool. The
// returned payload is the JSON-encoded Response (shared cache bytes — do
// not modify).
//
// ctx cancellation is deliberately decoupled from the computation: once a
// computation starts it runs to its own deadline, so a caller disconnect
// cannot abort a result other waiters (or the cache) want.
func (s *Service) Partition(ctx context.Context, req Request) ([]byte, Meta, error) {
	e, meta, err := s.lookup(ctx, req)
	return e.doc, meta, err
}

// lookup is Partition returning the whole entry: the document and its cuts.
func (s *Service) lookup(ctx context.Context, req Request) (entry, Meta, error) {
	canon, err := s.canonicalize(req)
	if err != nil {
		return entry{}, Meta{}, err
	}
	s.reqs.Inc()
	if e, ok := s.cache.Get(canon); ok {
		s.cacheHits.Inc()
		return e, Meta{CacheHit: true}, nil
	}
	s.cacheMisses.Inc()

	v, shared, err := s.flight.Do(canon, func() (any, error) {
		// Double-check under the flight: a previous flight for this request
		// may have filled the cache between our Get and Do.
		if e, ok := s.cache.Get(canon); ok {
			return computed{entry: e, hit: true}, nil
		}
		out, err := s.compute(ctx, canon, req.DeadlineMS)
		if err != nil {
			return nil, err
		}
		// Only pure-function-of-the-request answers are cacheable; both
		// degradation and breaker short-circuits reflect transient server
		// state.
		if !out.degraded && len(out.breakerSkipped) == 0 {
			s.cache.Put(canon, out.entry)
			s.cacheBytes.Set(s.cache.Bytes())
			s.cacheEntries.Set(int64(s.cache.Len()))
		}
		return out, nil
	})
	// Every request lands in exactly one outcome counter: a hit (above or
	// by the double-check), a joined flight whatever its result, or the
	// flight's own outcome — computed (counted in compute), shed (counted
	// in admit) or failed.
	switch {
	case shared:
		s.sfShared.Inc()
	case err != nil && !isShed(err):
		s.failures.Inc()
	case err == nil && v.(computed).hit:
		s.cacheHits.Inc()
		return v.(computed).entry, Meta{CacheHit: true}, nil
	}
	if err != nil {
		return entry{}, Meta{Shared: shared}, err
	}
	out := v.(computed)
	if out.degraded {
		s.degraded.Inc()
	}
	return out.entry, Meta{
		Shared:      shared,
		Degraded:    out.degraded,
		BreakerOpen: len(out.breakerSkipped) > 0,
	}, nil
}

// computed is one computation's outcome as it travels through the
// singleflight: the encoded response plus the transient-state markers that
// veto caching, or the cached entry the flight's double-check found (hit).
type computed struct {
	entry          entry
	hit            bool
	degraded       bool
	breakerSkipped []string
}

// isLarge reports whether ne falls in the large-problem regime.
func (s *Service) isLarge(ne int) bool { return s.cfg.LargeNe > 0 && ne >= s.cfg.LargeNe }

// compute runs one partition computation on the worker pool and encodes the
// response. The compute context is detached from the caller (see Partition)
// and bounded by the request deadline, the server default, or nothing.
// deadlineMS < 0 starts with the budget already spent — the degradation
// ladder's fast path.
//
// Requests at or above Config.LargeNe take the large-problem path: "auto"
// starts at SFC instead of the multilevel methods, and LargeDeadline bounds
// the work. The routing depends only on (Ne, server config), so cached
// answers stay deterministic; it is not deadline degradation and does not
// mark the response Degraded.
func (s *Service) compute(ctx context.Context, canon canonicalRequest, deadlineMS int64) (computed, error) {
	if err := s.admit(ctx, canon.Method); err != nil {
		return computed{}, err
	}
	defer s.adm.release()

	large := s.isLarge(canon.Ne)
	cctx := context.WithoutCancel(ctx)
	var cancel context.CancelFunc
	switch {
	case deadlineMS < 0:
		cctx, cancel = context.WithDeadline(cctx, time.Unix(0, 0))
	case deadlineMS > 0:
		cctx, cancel = context.WithTimeout(cctx, time.Duration(deadlineMS)*time.Millisecond)
	case large && s.cfg.LargeDeadline > 0:
		cctx, cancel = context.WithTimeout(cctx, s.cfg.LargeDeadline)
	case s.cfg.DefaultDeadline > 0:
		cctx, cancel = context.WithTimeout(cctx, s.cfg.DefaultDeadline)
	default:
		cancel = func() {}
	}
	defer cancel()

	// Chaos compute stall: injected by ChaosMiddleware as a context value so
	// it survives the WithoutCancel detachment. The select is on the compute
	// context — a client disconnect cannot cut the stall short, only the
	// compute budget can, exactly as with genuinely slow work.
	if d := computeStallFrom(ctx); d > 0 {
		stall := time.NewTimer(d)
		select {
		case <-stall.C:
		case <-cctx.Done():
			stall.Stop()
		}
	}

	t0 := time.Now()
	prob, err := core.NewProblem(canon.Ne)
	if err != nil {
		return computed{}, err
	}
	// The canonical spelling always re-parses; the generated vector is a pure
	// function of (mesh, spec), so it belongs in the cached content.
	if err := prob.SetWeightSpec(canon.Weights); err != nil {
		return computed{}, err
	}
	spec := resilience.NewFallbackSpec(canon.Ne, canon.NParts)
	spec.Seed = canon.Seed
	spec.MaxLB = math.Float64frombits(canon.MaxLB)
	chain := ladders[canon.Method]
	if large {
		s.large.Inc()
		if canon.Method == "auto" {
			chain = resilience.RepartitionChain
		}
	}
	spec.Chain, spec.Breakers = chain, s.breakers
	res, err := resilience.PartitionProblem(cctx, prob, spec)
	elapsed := time.Since(t0)
	if err != nil {
		return computed{}, err
	}
	var skipped []string
	for _, st := range res.Skipped {
		skipped = append(skipped, string(st))
		s.cfg.Registry.Counter("partsrv_breaker_short_circuits_total", "method", string(st)).Inc()
	}
	s.computations.Inc()
	s.computeNs.Observe(elapsed.Nanoseconds())

	resp := Response{
		Key: canon.key(), Ne: canon.Ne, NParts: canon.NParts, Method: canon.Method,
		Seed: res.Seed, Strategy: string(res.Strategy), WeightsSpec: canon.Weights,
		Stats: res.Stats, Assignment: res.Partition.Assignment(),
		BreakerSkipped: skipped,
	}
	for _, a := range res.Attempts {
		resp.Attempts = append(resp.Attempts, fmt.Sprintf("%s(seed %d): %v", a.Strategy, a.Seed, a.Err))
		if errors.Is(a.Err, context.DeadlineExceeded) || errors.Is(a.Err, context.Canceled) {
			resp.Degraded = true
		}
	}
	if !resp.Degraded && len(skipped) == 0 {
		// Feed the admission estimator only with representative samples:
		// degraded and short-circuited computations are cheaper than the
		// route's true cost and would bias the shed threshold down.
		s.estimates[canon.Method].record(elapsed, s.cfg.Registry, canon.Method)
	}
	e, err := encodeResponse(&resp)
	return computed{entry: e, degraded: resp.Degraded, breakerSkipped: skipped}, err
}
