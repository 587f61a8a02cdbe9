// Command seamsim runs the actual spectral element shallow-water substrate
// (not the analytic machine model): it integrates Williamson test case 2 on
// the cubed sphere with the elements distributed over in-process ranks
// according to a chosen partition, then reports measured wall time, per-rank
// communication volume, and the numerical error against the steady solution.
//
// Usage:
//
//	seamsim -ne 8 -degree 7 -ranks 8 -steps 20 -method sfc
//	seamsim -ne 8 -ranks 8 -method kway    # compare partitioners
//
// The run supervisor (internal/seam/supervise) is exercised through
// -checkpoint (periodic CRC-checksummed checkpoints with automatic resume
// on restart) and -inject (a seeded, replayable fault plan):
//
//	seamsim -ne 4 -ranks 4 -steps 16 -checkpoint /tmp/ck -checkpoint-every 4
//	seamsim -ne 4 -ranks 4 -steps 12 -checkpoint /tmp/ck \
//	    -inject nan@3,rankdeath@5,stall@7 -step-deadline 100ms
//
// Observability (see DESIGN.md "Observability"): -metrics-addr serves the
// Prometheus text exposition on /metrics plus the standard /debug/vars and
// /debug/pprof surfaces; -trace-out writes the structured run trace as
// JSONL (deterministic with -trace-deterministic):
//
//	seamsim -ne 8 -ranks 8 -steps 50 -metrics-addr :8080 -metrics-hold 30s
//	curl -s localhost:8080/metrics | grep seam_
//	seamsim -ne 4 -ranks 4 -steps 5 -trace-out run.jsonl -trace-deterministic
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/mesh"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/seam"
	"sfccube/internal/seam/supervise"
	"sfccube/internal/service"
)

func main() {
	ne := flag.Int("ne", 4, "elements per cube-face edge")
	degree := flag.Int("degree", 7, "polynomial degree (np = degree+1 GLL points)")
	ranks := flag.Int("ranks", 4, "number of in-process ranks (goroutines)")
	steps := flag.Int("steps", 20, "number of RK4 time steps")
	method := flag.String("method", "sfc", "partitioner: sfc, serpentine, rb, kway, tv, block")
	seed := flag.Int64("seed", 1, "seed for the METIS-style partitioners")
	ckDir := flag.String("checkpoint", "", "directory for CRC-checksummed checkpoints; resumes from the newest valid one")
	ckEvery := flag.Int("checkpoint-every", 8, "checkpoint cadence in steps (with -checkpoint)")
	inject := flag.String("inject", "", "fault plan, e.g. nan@3,rankdeath@5:2,stall@7,corruptckpt@4,parttimeout@6")
	injectSeed := flag.Uint64("inject-seed", 1, "seed deriving unspecified fault parameters (replayable)")
	stepDeadline := flag.Duration("step-deadline", 0, "per-step watchdog deadline (stall detection; 0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080 or :0); empty disables")
	metricsHold := flag.Duration("metrics-hold", 0, "keep the metrics server up this long after the run finishes (for scraping)")
	traceOut := flag.String("trace-out", "", "write the structured run trace as JSONL to this file")
	traceDet := flag.Bool("trace-deterministic", false, "record a deterministic trace (logical order, no wall-clock content)")
	flag.Parse()

	cfg := runConfig{
		ne: *ne, degree: *degree, ranks: *ranks, steps: *steps,
		method: *method, seed: *seed,
		ckDir: *ckDir, ckEvery: *ckEvery,
		inject: *inject, injectSeed: *injectSeed, stepDeadline: *stepDeadline,
		metricsAddr: *metricsAddr, metricsHold: *metricsHold,
		traceOut: *traceOut, traceDet: *traceDet,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "seamsim:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	ne, degree, ranks, steps int
	method                   string
	seed                     int64
	ckDir                    string
	ckEvery                  int
	inject                   string
	injectSeed               uint64
	stepDeadline             time.Duration
	metricsAddr              string
	metricsHold              time.Duration
	traceOut                 string
	traceDet                 bool
}

// serveObs starts the observability HTTP server on the shared
// internal/service lifecycle helper: Prometheus text on /metrics, the
// process expvars (plus the registry snapshot under the "sfccube" var) on
// /debug/vars, and the standard pprof surfaces under /debug/pprof/. Serve
// errors are logged instead of dropped; the returned server must be shut
// down by the caller (obsSetup's finish does).
func serveObs(addr string, reg *obs.Registry) (*service.Server, error) {
	mux := http.NewServeMux()
	service.AttachObs(mux, reg)
	return service.Listen(addr, mux, nil)
}

// obsSetup builds the registry/trace pair requested by the flags; either
// may be nil (disabled). finish writes the trace file, holds the metrics
// server open per -metrics-hold, then shuts it down gracefully; call it
// after the run.
func obsSetup(cfg runConfig) (reg *obs.Registry, tr *obs.RunTrace, finish func() error, err error) {
	var srv *service.Server
	if cfg.metricsAddr != "" {
		reg = obs.NewRegistry()
		srv, err = serveObs(cfg.metricsAddr, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("metrics: http://%s/metrics (pprof under /debug/pprof/, expvar under /debug/vars)\n", srv.Addr())
	}
	if cfg.traceOut != "" {
		tr = obs.NewRunTrace(1 << 16)
		tr.Deterministic = cfg.traceDet
	}
	finish = func() error {
		if tr != nil {
			f, err := os.Create(cfg.traceOut)
			if err != nil {
				return err
			}
			if err := tr.WriteJSONL(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("trace: %d events written to %s (%d dropped by the ring)\n",
				len(tr.Events()), cfg.traceOut, tr.Dropped())
		}
		if srv != nil {
			if cfg.metricsHold > 0 {
				fmt.Printf("holding metrics server for %v...\n", cfg.metricsHold)
				time.Sleep(cfg.metricsHold)
			}
			if err := srv.Shutdown(context.Background(), 5*time.Second); err != nil {
				return err
			}
		}
		return nil
	}
	return reg, tr, finish, nil
}

func run(cfg runConfig) error {
	ne, degree, ranks, steps, method, seed := cfg.ne, cfg.degree, cfg.ranks, cfg.steps, cfg.method, cfg.seed
	g, err := seam.NewGrid(ne, degree, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		return err
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		return err
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400)
	wind, phi := seam.Williamson2(g.Radius, g.Omega, u0, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.4)

	reg, tr, finishObs, err := obsSetup(cfg)
	if err != nil {
		return err
	}

	assign, err := assignment(method, ne, ranks, seed, reg)
	if err != nil {
		return err
	}
	fmt.Printf("K=%d elements, np=%d GLL points, %d ranks (%s partition), dt=%.1f s\n",
		g.NumElems(), g.Np, ranks, method, dt)

	if cfg.ckDir != "" || cfg.inject != "" {
		if err := runSupervised(cfg, sw, assign, dt, phi, reg, tr); err != nil {
			return err
		}
		return finishObs()
	}

	runner, err := seam.NewRunner(sw, assign, ranks)
	if err != nil {
		return err
	}
	runner.Instrument(reg, tr)
	mass0 := sw.TotalMass()
	elapsed := runner.Run(steps, dt)
	mass1 := sw.TotalMass()

	fmt.Printf("integrated %d steps (%.1f model hours) in %v (%.2f ms/step)\n",
		steps, float64(steps)*dt/3600, elapsed.Round(1000),
		elapsed.Seconds()*1e3/float64(steps))
	fmt.Printf("Williamson-2 Phi L2 error: %.3e (steady solution; smaller is better)\n",
		sw.PhiL2Error(phi))
	fmt.Printf("mass conservation: relative drift %.3e\n",
		math.Abs(mass1-mass0)/math.Abs(mass0))

	owned := runner.NumOwned()
	bytes := runner.BytesPerStep()
	lb := partition.LoadBalance(owned)
	fmt.Printf("elements/rank: %d..%d, LB(nelemd)=%.4f\n", slices.Min(owned), slices.Max(owned), lb)
	fmt.Printf("comm bytes/rank/step: %d..%d, LB(spcv)=%.4f\n",
		slices.Min(bytes), slices.Max(bytes), partition.LoadBalance(bytes))
	for rk := 0; rk < ranks && rk < 8; rk++ {
		fmt.Printf("  rank %d: %d elements, %d bytes/step, busy %v (block span share)\n",
			rk, owned[rk], bytes[rk], runner.BusyTime[rk].Round(1000))
	}
	return finishObs()
}

// runSupervised drives the integration through the run supervisor:
// periodic checkpoints, per-step NaN sentinel, watchdog, and the fault plan
// of -inject. Every recovery action is echoed from the deterministic event
// log.
func runSupervised(cfg runConfig, sw *seam.ShallowWater, assign []int32, dt float64, phi func(p mesh.Vec3) float64, reg *obs.Registry, tr *obs.RunTrace) error {
	store := supervise.NewMemStore()
	if cfg.ckDir != "" {
		var err error
		if store, err = supervise.NewFileStore(cfg.ckDir); err != nil {
			return err
		}
	}
	var inj *supervise.Injector
	if cfg.inject != "" {
		faults, err := supervise.ParseFaults(cfg.inject)
		if err != nil {
			return err
		}
		inj = supervise.NewInjector(cfg.injectSeed, faults...)
		fmt.Printf("fault plan (seed %d): %s\n", cfg.injectSeed, cfg.inject)
	}
	sup := &supervise.Supervisor{
		SW: sw, Ne: cfg.ne, Assign: assign, NRanks: cfg.ranks,
		Store: store, Injector: inj,
		Policy: supervise.Policy{
			CheckpointEvery: cfg.ckEvery,
			StepDeadline:    cfg.stepDeadline,
		},
		Obs: reg, Trace: tr,
	}
	mass0 := sw.TotalMass()
	start := time.Now()
	rep, err := sup.Run(context.Background(), cfg.steps, dt)
	elapsed := time.Since(start)
	for _, e := range rep.Events {
		fmt.Printf("  [%s] %s\n", e.Kind, e)
	}
	if err != nil {
		return err
	}
	mass1 := sw.TotalMass()
	if rep.Resumed {
		fmt.Printf("resumed from checkpoint; ")
	}
	fmt.Printf("supervised run reached step %d (dt=%.1f s, %d/%d ranks alive) in %v\n",
		rep.StepsDone, rep.FinalDt, rep.AliveRanks, cfg.ranks, elapsed.Round(time.Millisecond))
	fmt.Printf("checkpoints written: %d, rollbacks: %d\n", rep.Checkpoints, rep.Rollbacks)
	fmt.Printf("Williamson-2 Phi L2 error: %.3e (steady solution; smaller is better)\n",
		sw.PhiL2Error(phi))
	fmt.Printf("mass conservation: relative drift %.3e\n",
		math.Abs(mass1-mass0)/math.Abs(mass0))
	return nil
}

// assignment partitions the Ne mesh over the ranks with a method-table entry;
// "block" (element id order cut into equal blocks) is not a partitioner and
// stays a local special case.
func assignment(method string, ne, ranks int, seed int64, reg *obs.Registry) ([]int32, error) {
	if method == "block" {
		k := 6 * ne * ne
		a := make([]int32, k)
		for i := range a {
			a[i] = int32(i * ranks / k)
		}
		return a, nil
	}
	prob, err := core.NewProblem(ne)
	if err != nil {
		return nil, err
	}
	p, err := core.Run(context.Background(), method, prob, ranks, seed, reg)
	if err != nil {
		return nil, err
	}
	return p.Assignment(), nil
}
