package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/partition"
	"sfccube/internal/resilience"
	"sfccube/internal/service"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// span is one timed call, recorded from the benchmark's own files around a
// call into a layer's public function. Spans of one op share Op; Parent is
// the span that caused this one (0 for a root).
type span struct {
	Op      int    `json:"op"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, at exit. self
// is the time spent inside the recorder: the tracing overhead, measured
// directly because the difference between a traced and an untraced pass is
// far below what two passes on a shared host differ by anyway.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	self  time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int, name string, start, end time.Time) int {
	t := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{op, id, parent, name, start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()})
	r.self += time.Since(t)
	return id
}

// timed runs f inside a span and returns the span's id and duration.
func (r *recorder) timed(op, parent int, name string, f func()) (int, time.Duration) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return r.add(op, parent, name, t0, t1), t1.Sub(t0)
}

// setEnd closes a span that add opened before its children ran.
func (r *recorder) setEnd(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].EndNs = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// methodChains mirrors service.methodChains (unexported): the degradation
// ladder each method walks. The replay's payload is compared byte for byte
// with the service's, so a drift here fails the run instead of skewing it.
var methodChains = map[string][]resilience.Strategy{
	"auto": resilience.DefaultChain,
	"kway": {resilience.StrategyKWay, resilience.StrategyRB, resilience.StrategySFC, resilience.StrategySerpentine},
	"rb":   {resilience.StrategyRB, resilience.StrategySFC, resilience.StrategySerpentine},
	"sfc":  {resilience.StrategySFC, resilience.StrategySerpentine},
}

// stageTimes are the durations of one replayed request. The first six are the
// calls service.compute makes, in its order; they do not overlap and their
// sum is what trace.coverage compares with the service's own miss time. The
// last four are the winning strategy run once more: the chain's children.
type stageTimes struct {
	mesh, graph, weights, chain, stats, encode time.Duration
	mesh2, curve, cut, metis                   time.Duration
}

func (t *stageTimes) add(o stageTimes) {
	t.mesh += o.mesh
	t.graph += o.graph
	t.weights += o.weights
	t.chain += o.chain
	t.stats += o.stats
	t.encode += o.encode
	t.mesh2 += o.mesh2
	t.curve += o.curve
	t.cut += o.cut
	t.metis += o.metis
}

func (t stageTimes) topLevel() time.Duration {
	return t.mesh + t.graph + t.weights + t.chain + t.stats + t.encode
}

// replayOut is what the stage-by-stage replay of one request produced.
type replayOut struct {
	payload  []byte
	stats    partition.Stats
	attempts int
	times    stageTimes
}

// replayStages recomputes one request as direct calls into each layer, in the
// order service.compute makes them, with a span around each call. The stages
// inside resilience.PartitionWithFallback cannot be timed from outside, so
// the winning strategy is run once more after the chain and recorded as the
// chain's child; the chain's self time (chain - children) is then the gate,
// the abandoned attempts and the reseeds.
func replayStages(rec *recorder, op int, req service.Request, key string) (*replayOut, error) {
	var (
		out replayOut
		m   *mesh.Mesh
		g   *graph.Graph
		w   []int64
		res *resilience.FallbackResult
		err error
	)
	t := &out.times
	start := time.Now()
	root := rec.add(op, 0, "replay.op", start, start)
	_, t.mesh = rec.timed(op, root, "mesh.build", func() { m, err = mesh.NewAuto(req.Ne) })
	if err != nil {
		return nil, err
	}
	_, t.graph = rec.timed(op, root, "graph.build", func() { g, err = graph.FromMesh(m, graph.DefaultOptions()) })
	if err != nil {
		return nil, err
	}
	if req.WeightsSpec != "" {
		_, t.weights = rec.timed(op, root, "weights.generate", func() {
			var spec weights.Spec
			if spec, err = weights.Parse(req.WeightsSpec); err != nil {
				return
			}
			w = spec.Generate(m)
			var w32 []int32
			if w32, err = weights.Int32(w); err != nil {
				return
			}
			err = g.SetVertexWeights(w32)
		})
		if err != nil {
			return nil, err
		}
	}
	spec := resilience.NewFallbackSpec(req.Ne, req.NParts)
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	if req.Method == "sfc" {
		spec.Seed = 0 // service.canonicalize zeroes the seed of seedless methods
	}
	if req.MaxLB != nil {
		spec.MaxLB = *req.MaxLB
	}
	spec.Weights, spec.Chain, spec.Mesh, spec.Graph = w, methodChains[req.Method], m, g
	var chain int
	chain, t.chain = rec.timed(op, root, "resilience.chain", func() {
		res, err = resilience.PartitionWithFallback(context.Background(), spec)
	})
	if err != nil {
		return nil, err
	}
	switch res.Strategy {
	case resilience.StrategyKWay, resilience.StrategyRB:
		method := metis.KWay
		if res.Strategy == resilience.StrategyRB {
			method = metis.RB
		}
		_, t.metis = rec.timed(op, chain, "metis.partition", func() {
			_, err = metis.PartitionCtx(context.Background(), g, req.NParts, metis.Options{Method: method, Seed: res.Seed})
		})
	case resilience.StrategySFC:
		// core.PartitionCubedSphere builds its own mesh before the curve.
		var m2 *mesh.Mesh
		var curve *sfc.CubeCurve
		_, t.mesh2 = rec.timed(op, chain, "mesh.build", func() { m2, err = mesh.NewAuto(req.Ne) })
		if err != nil {
			return nil, err
		}
		_, t.curve = rec.timed(op, chain, "sfc.curve", func() {
			var sched sfc.Schedule
			if sched, err = sfc.ScheduleFor(req.Ne, sfc.PeanoFirst); err == nil {
				curve, err = sfc.NewCubeCurve(m2, sched)
			}
		})
		if err != nil {
			return nil, err
		}
		_, t.cut = rec.timed(op, chain, "partition.cut", func() { _, err = core.PartitionCurve(curve, req.NParts, w) })
	}
	if err != nil {
		return nil, err
	}
	_, t.stats = rec.timed(op, root, "partition.stats", func() {
		out.stats, err = partition.ComputeStatsWeighted(g, res.Partition, w)
	})
	if err != nil {
		return nil, err
	}
	resp := service.Response{
		Key: key, Ne: req.Ne, NParts: req.NParts, Method: req.Method, Seed: res.Seed,
		Strategy: string(res.Strategy), WeightsSpec: req.WeightsSpec, Stats: out.stats,
		Assignment: res.Partition.Assignment(),
	}
	for _, a := range res.Attempts {
		resp.Attempts = append(resp.Attempts, fmt.Sprintf("%s(seed %d): %v", a.Strategy, a.Seed, a.Err))
	}
	_, t.encode = rec.timed(op, root, "service.encode", func() { out.payload, err = json.Marshal(resp) })
	if err != nil {
		return nil, err
	}
	rec.setEnd(root, time.Now())
	out.attempts = len(res.Attempts) + 1
	return &out, nil
}

// parallelFor runs f(i) for i in [0, n) on one goroutine per core, handing
// indices out in order — the same concurrency as the HTTP passes, so a
// replay sees the same contention for cores, cache and the collector.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// httpPass stands a fresh instance up, preloads and warms it, and drives the
// traced prefix with a client-side root span per op, keeping the sampled
// responses. It returns the workload, the pass and the service-counter
// deltas over it.
func httpPass(cfg runConfig, rec *recorder) (*svcWorkload, driveOut, map[string]float64, error) {
	w, in, warm, err := setUp(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, driveOut{}, nil, err
	}
	defer in.stop()
	before := in.reg.Snapshot()
	out := in.drive(w.requests, w.seq[w.warmup:w.warmup+w.traceOps],
		driveOpts{rec: rec, keep: func(i int) bool { return i%w.stride == 0 }})
	after := in.reg.Snapshot()
	out.absorb(warm)
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	// Entries evicted = computations that were cached and are no longer there.
	delta["evictions"] = (after["partsrv_computations_total"] - after["partsrv_cache_entries"]) -
		(before["partsrv_computations_total"] - before["partsrv_cache_entries"])
	return w, out, delta, nil
}

// inprocOp is one op of the in-process pass. Every op owns its slot, so the
// workers share nothing but the recorder.
type inprocOp struct {
	req     int32
	payload []byte  // the service's payload when this op computed it (a miss)
	ms      float64 // the op's own Service.Partition call
	hitUs   float64 // a cache hit on the same key: the op itself, or its repeat
	err     error
}

// inprocPass sends the hot set, then ops, to a fresh service as direct
// Service.Partition calls. A request the service has not seen is sent twice:
// the miss is the op, the repeat a hit sample. The returned slice holds the
// hot set first.
func inprocPass(w *svcWorkload, ops []opRef, rec *recorder) ([]inprocOp, error) {
	in, err := startInstance()
	if err != nil {
		return nil, err
	}
	defer in.stop()
	call := func(op int, o *inprocOp, name string, wantHit bool) ([]byte, float64) {
		t0 := time.Now()
		b, meta, err := in.svc.Partition(context.Background(), w.requests[o.req].req)
		t1 := time.Now()
		switch {
		case err != nil:
			o.err = fmt.Errorf("in-process request %d: %w", o.req, err)
		case meta.Degraded || meta.BreakerOpen:
			o.err = fmt.Errorf("in-process request %d: degraded or breaker-skipped", o.req)
		case meta.CacheHit != wantHit:
			o.err = fmt.Errorf("in-process request %d: cache hit = %v, want %v", o.req, meta.CacheHit, wantHit)
		}
		rec.add(op, 0, name, t0, t1)
		return b, ms(t1.Sub(t0))
	}
	out := make([]inprocOp, len(w.preload)+len(ops))
	run := func(op int, o *inprocOp, seen bool) {
		if !seen {
			o.payload, o.ms = call(op, o, "service.partition.miss", false)
		}
		if o.err == nil {
			var hit float64
			_, hit = call(op, o, "service.partition.hit", true)
			o.hitUs = hit * 1000
			if seen {
				o.ms = hit
			}
		}
	}
	parallelFor(len(w.preload), func(i int) {
		out[i].req = w.preload[i]
		run(-1-i, &out[i], false)
	})
	parallelFor(len(ops), func(i int) {
		o := &out[len(w.preload)+i]
		o.req = ops[i].req
		run(i, o, w.requests[o.req].preloaded)
	})
	return out, nil
}

// runSvcTraced is the traced run of a partsrv workload: the per-layer ledger.
// It replays the head of the op sequence three times, each against a fresh
// service: over HTTP with a client-side root span per op, as in-process
// Service.Partition calls, and stage by stage as direct calls into each
// layer.
func runSvcTraced(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	calib0 := calibrate()
	rec := newRecorder()

	w, traced, counters, err := httpPass(cfg, rec)
	if err != nil {
		return nil, err
	}
	res.count(traced.attempted, traced.failed, traced.firstErr)
	res.Ops = len(traced.latMs)
	overhead := float64(rec.self) / (float64(traced.wall) * float64(runtime.GOMAXPROCS(0)))
	timed := w.seq[w.warmup:]
	_, verr := newVerifier().checkSamples(w, timed, traced.samples)
	res.fails(verr)

	inproc, err := inprocPass(w, timed[:w.replayOps], rec)
	if err != nil {
		return nil, err
	}

	// Stage replay of every request the in-process pass computed. The sums
	// below run in op order, so the exact ones repeat exactly.
	replays := make([]*replayOut, len(inproc))
	replayErr := make([]error, len(inproc))
	parallelFor(len(inproc), func(i int) {
		o := &inproc[i]
		if o.payload == nil {
			return
		}
		var hdr struct {
			Key string `json:"key"`
		}
		if replayErr[i] = json.Unmarshal(o.payload, &hdr); replayErr[i] != nil {
			return
		}
		r, err := replayStages(rec, i-len(w.preload), w.requests[o.req].req, hdr.Key)
		if err == nil && !bytes.Equal(r.payload, o.payload) {
			err = fmt.Errorf("replayed payload differs from the service's")
		}
		if err != nil {
			replayErr[i] = fmt.Errorf("stage replay of request %d: %w", o.req, err)
			return
		}
		replays[i] = r
	})

	// The ledger: means per computed request.
	var (
		sum                                stageTimes
		n, missSum, attempts, lb, cut, tcv float64
		hitUs                              []float64
		httpSum, inprocSum, both           float64
	)
	httpMs := make(map[int]float64, len(traced.idx))
	for j, i := range traced.idx {
		httpMs[i] = traced.latMs[j]
	}
	for i := range inproc {
		o := &inproc[i]
		res.count(1, 0, nil)
		if o.err != nil {
			res.count(0, 1, o.err)
			continue
		}
		hitUs = append(hitUs, o.hitUs)
		// transport.self: the same ops over loopback HTTP and as direct calls.
		if h, sent := httpMs[i-len(w.preload)]; sent && i >= len(w.preload) {
			httpSum += h
			inprocSum += o.ms
			both++
		}
		if o.payload == nil {
			continue
		}
		res.count(1, 0, nil)
		if replayErr[i] != nil {
			res.count(0, 1, replayErr[i])
			continue
		}
		r := replays[i]
		n++
		missSum += o.ms
		sum.add(r.times)
		attempts += float64(r.attempts)
		lb += r.stats.LBNelemd
		cut += float64(r.stats.EdgeCut)
		tcv += float64(r.stats.TotalCommVolume)
	}
	n = max(n, 1)
	perReq := func(d time.Duration) float64 { return ms(d) / n }
	missMs := missSum / n
	res.set("mesh.build_ms", perReq(sum.mesh+sum.mesh2))
	res.set("graph.build_ms", perReq(sum.graph))
	res.set("weights.generate_ms", perReq(sum.weights))
	res.set("sfc.curve_ms", perReq(sum.curve))
	res.set("partition.cut_ms", perReq(sum.cut))
	res.set("metis.partition_ms", perReq(sum.metis))
	res.set("resilience.chain_ms", perReq(sum.chain))
	res.set("resilience.self_ms", perReq(sum.chain-sum.mesh2-sum.curve-sum.cut-sum.metis))
	res.set("resilience.attempts_per_req", attempts/n)
	res.set("partition.stats_ms", perReq(sum.stats))
	res.set("service.encode_ms", perReq(sum.encode))
	res.set("service.resp_kb", float64(traced.bodyBytes)/1024/max(float64(len(traced.latMs)), 1))
	res.set("service.miss_ms", missMs)
	res.set("service.hit_us", mean(hitUs))
	res.set("service.self_ms", missMs-perReq(sum.topLevel()))
	hits, misses := counters["partsrv_cache_hits_total"], counters["partsrv_cache_misses_total"]
	res.set("service.cache_hit_ratio", hits/max(hits+misses, 1))
	res.set("service.computations", counters["partsrv_computations_total"])
	res.set("service.cache_evictions", counters["evictions"])
	res.set("service.singleflight_shared", counters["partsrv_singleflight_shared_total"])
	res.set("service.shed_total", counters[`partsrv_shed_total{reason="queue_full"}`]+
		counters[`partsrv_shed_total{reason="deadline"}`]+counters[`partsrv_shed_total{reason="cancelled"}`])
	res.set("service.degraded_total", counters["partsrv_degraded_total"])
	res.set("transport.self_ms", (httpSum-inprocSum)/max(both, 1))
	if cfg.workload == wlMissSFC {
		large, err := largePartitionProbe()
		res.count(1, 0, nil)
		if err != nil {
			res.count(0, 1, err)
		}
		res.set("core.large_partition_ms", large)
	}
	res.set("partition.lb_nelemd", lb/n)
	res.set("partition.edgecut", cut/n)
	res.set("partition.tcv", tcv/n)
	res.set("trace.coverage", perReq(sum.topLevel())/missMs)
	res.set("trace.overhead_frac", overhead)
	res.finishProc(calib0)
	return res, rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"))
}

// largePartitionProbe is the large-regime canary: the median of five
// core.PartitionCubedSphere(Ne=384, NProcs=9216) calls. None of the four
// workloads reaches that size; it is recorded so that deferred-mesh and
// parallel-curve changes stay visible.
func largePartitionProbe() (float64, error) {
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := core.PartitionCubedSphere(core.Config{Ne: 384, NProcs: 9216}); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}
