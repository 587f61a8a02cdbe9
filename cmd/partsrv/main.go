// Command partsrv is the partition-as-a-service daemon (ROADMAP item 1): a
// long-running HTTP server handing out cubed-sphere partitions. Internals
// (package internal/service): a content-addressed LRU response cache,
// singleflight dedup so a thundering herd of identical requests computes
// once, a bounded compute pool, and graceful degradation through the
// resilience fallback chain — an expired deadline still gets an O(K)
// SFC/serpentine partition, marked degraded.
//
// Endpoints:
//
//	GET|POST /v1/partition         JSON:   assignment + partition stats
//	GET|POST /v1/partition/stream  NDJSON: header line, then assignment chunks
//	GET      /healthz              liveness
//	GET      /metrics              Prometheus text exposition
//	         /debug/vars, /debug/pprof/  standard debug surfaces
//
// Quickstart:
//
//	partsrv -addr :8090 &
//	curl -s 'localhost:8090/v1/partition?ne=8&nparts=16&method=sfc' | jq .stats
//	curl -s -X POST localhost:8090/v1/partition \
//	    -d '{"ne": 12, "nparts": 48, "method": "kway", "seed": 7}' | jq .strategy
//	curl -s localhost:8090/metrics | grep partsrv_
//
// The built-in load smoke (-loadtest N) starts an in-process instance,
// fires N concurrent identical requests plus distinct batches, checks the
// singleflight/cache/latency SLOs and writes a JSON report (see TESTING.md
// "Partition-service load policy").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/resilience"
	"sfccube/internal/service"
	"sfccube/internal/weights"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address (e.g. :8090 or 127.0.0.1:0)")
	maxNe := flag.Int("max-ne", 384, "largest accepted cube-face dimension Ne (memory guard)")
	workers := flag.Int("workers", 0, "max concurrent partition computations (0 = GOMAXPROCS)")
	cacheMB := flag.Int64("cache-mb", 64, "response cache payload bound in MiB")
	cacheEntries := flag.Int("cache-entries", 4096, "response cache entry bound")
	defaultDeadline := flag.Duration("default-deadline", 0, "compute budget for requests that carry none (0 = unbounded)")
	largeNe := flag.Int("large-ne", 0, "Ne threshold for the large-problem regime: SFC-first auto chain, -large-deadline budget (0 = default 256, negative = disable)")
	largeDeadline := flag.Duration("large-deadline", 30*time.Second, "compute budget for large-regime requests that carry none (0 = default-deadline)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	queueDepth := flag.Int("queue-depth", 0, "max computations waiting for a worker before 429 sheds (0 = default 64, negative = no waiting)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on shed responses (0 = default 1s)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures tripping a per-method circuit breaker (0 = default 5, negative = disable)")
	breakerLatency := flag.Duration("breaker-latency", 0, "per-computation latency budget counted as a breaker failure (0 = off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 2s)")
	weightsSpec := flag.String("weights", "", "default weights_spec for requests that carry none, in the internal/weights grammar (e.g. 'cfl' or 'hv:amp=16,m=6'; empty = uniform cost)")
	chaos := flag.String("chaos", "", "seeded fault-injection plan, e.g. 'slowresp@0.2:40ms,droppedconn@0.1,computestall@0.15:80ms,errinject@0.1' (empty = off)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the chaos plan; same seed and traffic order replay the same faults")

	ltN := flag.Int("loadtest", 0, "run the load smoke with this many concurrent identical requests instead of serving (0 = serve)")
	ltDistinct := flag.Int("loadtest-distinct", 8, "distinct requests per load-smoke batch (each replayed once for cache hits)")
	ltOut := flag.String("loadtest-out", "", "write the load-smoke JSON report to this file")
	ltP99 := flag.Duration("loadtest-p99-slo", 2*time.Second, "p99 end-to-end latency SLO for the load smoke")
	ltHitFloor := flag.Float64("loadtest-hit-floor", 0.45, "minimum overall cache-hit ratio for the load smoke")
	ltChaos := flag.String("loadtest-chaos", "", "run the chaos soak phase of the load smoke under this fault plan (empty = skip)")
	ltChaosSeed := flag.Uint64("loadtest-chaos-seed", 1, "seed for the load-smoke chaos plan")
	flag.Parse()

	// A bad default-weights spec is a server misconfiguration, not a client
	// error: fail at startup instead of 400ing every request.
	if _, err := weights.Parse(*weightsSpec); err != nil {
		fmt.Fprintln(os.Stderr, "partsrv: -weights:", err)
		os.Exit(2)
	}

	cfg := service.Config{
		MaxNe:           *maxNe,
		Workers:         *workers,
		CacheBytes:      *cacheMB << 20,
		CacheEntries:    *cacheEntries,
		DefaultDeadline: *defaultDeadline,
		LargeNe:         *largeNe,
		LargeDeadline:   *largeDeadline,
		QueueDepth:      *queueDepth,
		RetryAfter:      *retryAfter,
		BreakerFailures: *breakerFailures,
		BreakerLatency:  *breakerLatency,
		BreakerCooldown: *breakerCooldown,
		DefaultWeights:  *weightsSpec,
		Registry:        obs.NewRegistry(),
	}

	if *ltN > 0 {
		if err := runLoadTest(loadTestConfig{
			service:   cfg,
			herd:      *ltN,
			distinct:  *ltDistinct,
			out:       *ltOut,
			p99SLO:    *ltP99,
			hitFloor:  *ltHitFloor,
			chaos:     *ltChaos,
			chaosSeed: *ltChaosSeed,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "partsrv loadtest:", err)
			os.Exit(1)
		}
		return
	}

	var plan *resilience.ChaosPlan
	if *chaos != "" {
		var err error
		if plan, err = resilience.ParseChaosPlan(*chaos, *chaosSeed); err != nil {
			fmt.Fprintln(os.Stderr, "partsrv:", err)
			os.Exit(2)
		}
		fmt.Printf("partsrv: CHAOS MODE — injecting %q (seed %d)\n", *chaos, *chaosSeed)
	}
	if err := serve(*addr, cfg, *shutdownTimeout, plan); err != nil {
		fmt.Fprintln(os.Stderr, "partsrv:", err)
		os.Exit(1)
	}
}

// start brings up one instance on addr: the service behind its handler, the
// observability surfaces beside it and, under a non-nil chaos plan, seeded
// fault injection in front of the /v1/ endpoints (health and observability
// stay clean). The daemon, the load smoke and the chaos soak all start here.
func start(cfg service.Config, addr string, plan *resilience.ChaosPlan) (*service.Server, error) {
	mux := service.NewService(cfg).Handler()
	service.AttachObs(mux, cfg.Registry)
	return service.Listen(addr, service.ChaosMiddleware(plan, cfg.Registry, mux), nil)
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully.
func serve(addr string, cfg service.Config, shutdownTimeout time.Duration, plan *resilience.ChaosPlan) error {
	srv, err := start(cfg, addr, plan)
	if err != nil {
		return err
	}
	fmt.Printf("partsrv: serving on http://%s (try /v1/partition?ne=8&nparts=16, metrics on /metrics)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("partsrv: signal received, draining...")
	case <-srv.Done():
		// Serve failed underneath us; Shutdown below surfaces the error.
	}
	return srv.Shutdown(context.Background(), shutdownTimeout)
}
