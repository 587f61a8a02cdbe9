package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/resilience"
	"sfccube/internal/service"
)

// loadTestConfig drives runLoadTest. The smoke is benchgate-style
// report-only in CI: it prints and writes the report either way and exits
// nonzero only when an invariant or SLO is violated, with the CI job
// marked advisory (continue-on-error).
type loadTestConfig struct {
	service  service.Config
	herd     int           // concurrent identical requests (singleflight check)
	distinct int           // distinct requests, each replayed once (cache check)
	out      string        // JSON report path ("" = stdout only)
	p99SLO   time.Duration // end-to-end p99 latency budget
	hitFloor float64       // minimum overall cache-hit ratio

	// chaos enables the shed-not-collapse phase: a fresh, deliberately
	// small service instance soaked under this seeded fault plan (see
	// resilience.ParseChaosPlan). Empty skips the phase.
	chaos     string
	chaosSeed uint64
}

// loadReport is the JSON artifact. Every section carries its own ok flag;
// the top-level ok is their conjunction.
type loadReport struct {
	Config struct {
		Herd     int     `json:"herd"`
		Distinct int     `json:"distinct"`
		P99SLOMS float64 `json:"p99_slo_ms"`
		HitFloor float64 `json:"hit_floor"`
	} `json:"config"`
	Herd struct {
		Requests     int   `json:"requests"`
		Computations int64 `json:"computations"`
		OK           bool  `json:"ok"` // exactly one computation
	} `json:"herd"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Shared int64 `json:"singleflight_shared"`
		// Ratio is the work-avoidance ratio: the fraction of accepted
		// requests answered without a fresh computation (cache hits plus
		// singleflight joins — a herd follower counts as a cache miss in
		// the raw counters even though it does no work).
		Ratio float64 `json:"ratio"`
		Floor float64 `json:"floor"`
		OK    bool    `json:"ok"`
	} `json:"cache"`
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	SLO struct {
		P99MS   float64 `json:"p99_ms"`
		LimitMS float64 `json:"limit_ms"`
		OK      bool    `json:"ok"`
	} `json:"slo"`
	Chaos *chaosReport `json:"chaos,omitempty"`
	OK    bool         `json:"ok"`
}

// chaosReport is the shed-not-collapse section: under seeded faults and an
// undersized worker pool, every request must still end in a deliberate
// terminal state (2xx served, 429/503 shed), accepted requests must stay
// inside the latency SLO, and the instance must drain without leaking
// goroutines.
type chaosReport struct {
	Plan     string `json:"plan"`
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`
	// Outcomes counts terminal HTTP statuses; "other" would break TerminalOK.
	Outcomes map[string]int `json:"outcomes"`
	// Injected counts chaos faults by kind, Shed admission sheds by reason
	// (both from the instance's own metrics).
	Injected           map[string]int64 `json:"injected"`
	Shed               map[string]int64 `json:"shed"`
	BreakerTransitions int64            `json:"breaker_transitions"`
	AcceptedP99MS      float64          `json:"accepted_p99_ms"`
	AcceptedLimitMS    float64          `json:"accepted_limit_ms"`
	GoroutinesBaseline int              `json:"goroutines_baseline"`
	GoroutinesAfter    int              `json:"goroutines_after_drain"`
	TerminalOK         bool             `json:"terminal_ok"`
	LatencyOK          bool             `json:"latency_ok"`
	GoroutinesOK       bool             `json:"goroutines_ok"`
	OK                 bool             `json:"ok"`
}

// runLoadTest stands up an in-process partsrv on a loopback port, drives it
// over real HTTP, and checks the three production invariants: thundering
// herds collapse to one computation, replays come from the cache, and p99
// stays inside the SLO.
func runLoadTest(cfg loadTestConfig) error {
	srv, err := start(cfg.service, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background(), 5*time.Second) //nolint:errcheck // best-effort teardown

	client := &http.Client{Timeout: 60 * time.Second}
	var (
		latMu sync.Mutex
		lats  []time.Duration
	)
	get := func(url string) error {
		status, lat, err := fetch(client, url)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", url, status)
		}
		latMu.Lock()
		lats = append(lats, lat)
		latMu.Unlock()
		return nil
	}

	// Phase 1 — thundering herd: identical requests, all in flight at once.
	herdURL := srv.URL() + "/v1/partition?ne=12&nparts=36&method=kway&seed=1"
	if err := fanOut(cfg.herd, func(int) error { return get(herdURL) }); err != nil {
		return err
	}
	snap := func(name string) int64 { return int64(cfg.service.Registry.Snapshot()[name]) }
	herdComputations := snap("partsrv_computations_total")

	// Phase 2 — distinct requests, then replay each once: the replays must
	// be pure cache hits. Every other request carries a weights_spec, so the
	// replays also prove the spec canonicalizes into the cache key (a
	// weighted replay that recomputed would sink the work-avoidance ratio).
	weightSpecs := []string{"", "cfl", "hv", "cfl:amp=16"}
	for pass := 0; pass < 2; pass++ {
		err := fanOut(cfg.distinct, func(i int) error {
			url := fmt.Sprintf("%s/v1/partition?ne=8&nparts=%d&method=rb&seed=%d",
				srv.URL(), 8+2*i, i)
			if ws := weightSpecs[i%len(weightSpecs)]; ws != "" {
				url += "&weights_spec=" + ws
			}
			return get(url)
		})
		if err != nil {
			return err
		}
	}

	// Weighted schema check: a weighted answer must echo the canonical spec
	// and carry the weighted balance alongside the element counts.
	if err := checkWeightedResponse(client, srv.URL()+
		"/v1/partition?ne=8&nparts=16&method=sfc&weights_spec=hyperviscosity:amp=8"); err != nil {
		return err
	}

	// Assemble the report.
	var rep loadReport
	rep.Config.Herd = cfg.herd
	rep.Config.Distinct = cfg.distinct
	rep.Config.P99SLOMS = float64(cfg.p99SLO) / 1e6
	rep.Config.HitFloor = cfg.hitFloor

	rep.Herd.Requests = cfg.herd
	rep.Herd.Computations = herdComputations
	rep.Herd.OK = herdComputations == 1

	hits, misses := snap("partsrv_cache_hits_total"), snap("partsrv_cache_misses_total")
	shared := snap("partsrv_singleflight_shared_total")
	requests := snap("partsrv_requests_total")
	rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Shared = hits, misses, shared
	if requests > 0 {
		rep.Cache.Ratio = float64(hits+shared) / float64(requests)
	}
	rep.Cache.Floor = cfg.hitFloor
	rep.Cache.OK = rep.Cache.Ratio >= cfg.hitFloor

	slices.Sort(lats)
	rep.LatencyMS.P50 = percentileMS(lats, 0.50)
	rep.LatencyMS.P95 = percentileMS(lats, 0.95)
	rep.LatencyMS.P99 = percentileMS(lats, 0.99)
	rep.LatencyMS.Max = float64(lats[len(lats)-1]) / 1e6
	rep.SLO.P99MS = rep.LatencyMS.P99
	rep.SLO.LimitMS = float64(cfg.p99SLO) / 1e6
	rep.SLO.OK = rep.LatencyMS.P99 <= rep.SLO.LimitMS
	rep.OK = rep.Herd.OK && rep.Cache.OK && rep.SLO.OK

	// Phase 3 — chaos soak (opt-in): a fresh undersized instance under the
	// seeded fault plan must shed, not collapse.
	if cfg.chaos != "" {
		chaos, err := runChaosPhase(cfg)
		if err != nil {
			return err
		}
		rep.Chaos = chaos
		rep.OK = rep.OK && chaos.OK
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("loadtest: report written to %s\n", cfg.out)
	}
	if err := srv.Shutdown(context.Background(), 5*time.Second); err != nil {
		return err
	}
	if !rep.OK {
		msg := fmt.Sprintf("SLO violated: herd ok=%v (computations=%d), cache ok=%v (ratio=%.2f < floor %.2f is a violation), p99 ok=%v (%.1fms vs %.1fms)",
			rep.Herd.OK, rep.Herd.Computations, rep.Cache.OK, rep.Cache.Ratio, rep.Cache.Floor,
			rep.SLO.OK, rep.SLO.P99MS, rep.SLO.LimitMS)
		if rep.Chaos != nil {
			msg += fmt.Sprintf(", chaos ok=%v (terminal=%v latency=%v goroutines=%v outcomes=%v)",
				rep.Chaos.OK, rep.Chaos.TerminalOK, rep.Chaos.LatencyOK, rep.Chaos.GoroutinesOK, rep.Chaos.Outcomes)
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// checkWeightedResponse fetches url (whose weights_spec uses a non-canonical
// spelling) and asserts the weighted contract: the response echoes the
// canonical spec and reports per-part weight totals with a finite weighted
// balance.
func checkWeightedResponse(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var r service.Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return fmt.Errorf("weighted response: %w", err)
	}
	if r.WeightsSpec != "hv" {
		return fmt.Errorf("weighted response echoes weights_spec %q, want canonical \"hv\"", r.WeightsSpec)
	}
	if len(r.Stats.PartWeights) != r.NParts {
		return fmt.Errorf("weighted response has %d part weights, want %d", len(r.Stats.PartWeights), r.NParts)
	}
	if r.Stats.LBWeighted < 0 {
		return fmt.Errorf("weighted response LB %g out of range", r.Stats.LBWeighted)
	}
	return nil
}

// runChaosPhase soaks a fresh partsrv instance — two workers, an
// eight-deep admission queue, hair-trigger breakers — under the seeded
// fault plan. Each of cfg.herd client goroutines walks four request
// variants (a shared key for the flight/cache path, two per-goroutine keys
// for admission pressure, a stream). Transport faults (dropped
// connections) are retried with the resilience backoff; HTTP statuses are
// terminal. The phase passes when every request ends in {2xx, 429, 503},
// accepted-request p99 stays inside the SLO, and the goroutine count
// returns to baseline after drain.
func runChaosPhase(cfg loadTestConfig) (*chaosReport, error) {
	plan, err := resilience.ParseChaosPlan(cfg.chaos, cfg.chaosSeed)
	if err != nil {
		return nil, err
	}
	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	srv, err := start(service.Config{
		MaxNe:           cfg.service.MaxNe,
		Workers:         2,
		QueueDepth:      8,
		BreakerFailures: 3,
		BreakerCooldown: 300 * time.Millisecond,
		Registry:        reg,
	}, "127.0.0.1:0", plan)
	if err != nil {
		return nil, err
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var (
		mu       sync.Mutex
		outcomes = map[string]int{}
		accepted []time.Duration
		requests int
	)
	record := func(status int, lat time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		requests++
		switch {
		case status >= 200 && status < 300:
			outcomes["2xx"]++
			accepted = append(accepted, lat)
		case status == http.StatusTooManyRequests:
			outcomes["429"]++
		case status == http.StatusServiceUnavailable:
			outcomes["503"]++
		case status == 0:
			outcomes["transport_error"]++
		default:
			outcomes[fmt.Sprintf("other_%d", status)]++
		}
	}
	do := func(worker, step int, url string) {
		var status int
		var lat time.Duration
		// Dropped connections are transport faults, not terminal answers:
		// retry them with the seeded decorrelated backoff. At the CI drop
		// rate (0.15) eight attempts make an all-dropped walk vanishingly
		// rare, so exhaustion lands in the report as transport_error.
		_ = resilience.Retry(context.Background(), resilience.RetrySpec{
			MaxAttempts: 8,
			Base:        5 * time.Millisecond,
			Seed:        cfg.chaosSeed ^ uint64(worker*131+step),
		}, func(context.Context) (err error) {
			status, lat, err = fetch(client, url)
			return err
		})
		record(status, lat)
	}

	_ = fanOut(cfg.herd, func(i int) error { // every outcome, failures included, is in the report
		urls := []string{
			srv.URL() + "/v1/partition?ne=8&nparts=12&method=sfc",
			fmt.Sprintf("%s/v1/partition?ne=8&nparts=%d&method=rb&seed=%d", srv.URL(), 8+2*(i%8), i),
			fmt.Sprintf("%s/v1/partition?ne=6&nparts=9&method=kway&seed=%d&weights_spec=cfl", srv.URL(), i),
			srv.URL() + "/v1/partition/stream?ne=8&nparts=12&method=serpentine",
		}
		for j, u := range urls {
			do(i, j, u)
		}
		return nil
	})

	// Drain: the instance must come all the way down, handlers included.
	if err := srv.Shutdown(context.Background(), 10*time.Second); err != nil {
		return nil, fmt.Errorf("chaos drain: %w", err)
	}
	client.CloseIdleConnections()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > baseline+2 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		after = runtime.NumGoroutine()
	}

	rep := &chaosReport{
		Plan:               cfg.chaos,
		Seed:               cfg.chaosSeed,
		Requests:           requests,
		Outcomes:           outcomes,
		Injected:           map[string]int64{},
		Shed:               map[string]int64{},
		AcceptedLimitMS:    float64(cfg.p99SLO) / 1e6,
		GoroutinesBaseline: baseline,
		GoroutinesAfter:    after,
	}
	for name, v := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(name, "partsrv_chaos_injected_total{"):
			rep.Injected[name[strings.Index(name, "\"")+1:len(name)-2]] = int64(v)
		case strings.HasPrefix(name, "partsrv_shed_total{"):
			rep.Shed[name[strings.Index(name, "\"")+1:len(name)-2]] = int64(v)
		case strings.HasPrefix(name, "partsrv_breaker_transitions_total{"):
			rep.BreakerTransitions += int64(v)
		}
	}

	rep.TerminalOK = true
	for k := range outcomes {
		if k != "2xx" && k != "429" && k != "503" {
			rep.TerminalOK = false
		}
	}
	slices.Sort(accepted)
	rep.AcceptedP99MS = percentileMS(accepted, 0.99)
	if len(accepted) == 0 {
		// A soak where nothing was accepted is a collapse, however clean
		// the sheds look.
		rep.TerminalOK = false
	}
	rep.LatencyOK = rep.AcceptedP99MS <= rep.AcceptedLimitMS
	rep.GoroutinesOK = after <= baseline+2
	rep.OK = rep.TerminalOK && rep.LatencyOK && rep.GoroutinesOK
	return rep, nil
}

// fetch GETs url and drains the body; it reports the status and the
// end-to-end latency, or — with a zero status — the transport failure.
func fetch(client *http.Client, url string) (status int, lat time.Duration, err error) {
	start := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, time.Since(start), nil
}

// fanOut runs fn(0) … fn(n-1) on n goroutines released together by one
// barrier, waits for all of them and returns the lowest-index error.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = fn(i)
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// percentileMS is the nearest-rank q-quantile of sorted latencies, in
// milliseconds; 0 when there are none.
func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e6
}
