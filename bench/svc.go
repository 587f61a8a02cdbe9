package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/service"
)

// instance is one in-process partsrv: the engine, its registry, the loopback
// listener and one keep-alive client per core.
type instance struct {
	svc                *service.Service
	reg                *obs.Registry
	srv                *service.Server
	clients            []*http.Client
	urlJSON, urlStream string
}

// startInstance stands the daemon up the way cmd/partsrv's serve does with
// its flag defaults: max-ne 384, 64 MiB / 4096-entry cache, workers =
// GOMAXPROCS, no default deadline, 30 s large-regime deadline, breakers at
// defaults, no chaos plan.
func startInstance() (*instance, error) {
	reg := obs.NewRegistry()
	svc := service.NewService(service.Config{
		MaxNe:         384,
		CacheBytes:    64 << 20,
		CacheEntries:  4096,
		LargeDeadline: 30 * time.Second,
		Registry:      reg,
	})
	mux := svc.Handler()
	service.AttachObs(mux, reg)
	srv, err := service.Listen("127.0.0.1:0", mux, nil)
	if err != nil {
		return nil, err
	}
	in := &instance{svc: svc, reg: reg, srv: srv,
		urlJSON: srv.URL() + "/v1/partition", urlStream: srv.URL() + "/v1/partition/stream"}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		in.clients = append(in.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:    1,
			DisableCompression: true,
		}})
	}
	return in, nil
}

func (in *instance) stop() error {
	for _, c := range in.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
	return in.srv.Shutdown(context.Background(), 5*time.Second)
}

// sample is one response kept for verification after the timed window.
type sample struct {
	idx  int
	body []byte
}

// driveOut is what one closed-loop pass over an op sequence produced.
type driveOut struct {
	idx       []int     // op index of every completed op
	latMs     []float64 // its latency: send -> last body byte read
	bodyBytes int64
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	samples   []sample
}

func (o *driveOut) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// absorb adds another pass's op and failure counts to o.
func (o *driveOut) absorb(p driveOut) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
}

// driveOpts are the optional parts of a pass.
type driveOpts struct {
	window     time.Duration    // stop once this has elapsed (0: run all of seq)
	keep       func(i int) bool // responses to retain for verification
	rec        *recorder        // receives a client-side root span per op
	preloading bool             // the hot set itself is being sent: misses
}

// drive runs seq in a closed loop: one goroutine per client, each taking the
// next op index when its previous reply has been read to the last byte.
func (in *instance) drive(reqs []request, seq []opRef, opt driveOpts) driveOut {
	var next atomic.Int64
	outs := make([]driveOut, len(in.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, client := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[c]
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) || (opt.window > 0 && time.Since(start) >= opt.window) {
					return
				}
				o.attempted++
				ref := seq[i]
				rq := &reqs[ref.req]
				t0 := time.Now()
				err := in.send(client, rq, ref.stream, rq.preloaded && !opt.preloading, &buf)
				t1 := time.Now()
				if err != nil {
					o.fail(fmt.Errorf("op %d: %w", i, err))
					continue
				}
				o.idx = append(o.idx, i)
				o.latMs = append(o.latMs, ms(t1.Sub(t0)))
				o.bodyBytes += int64(buf.Len())
				if opt.rec != nil {
					opt.rec.add(i, 0, "http.op", t0, t1)
				}
				if opt.keep != nil && opt.keep(i) {
					o.samples = append(o.samples, sample{idx: i, body: bytes.Clone(buf.Bytes())})
				}
			}
		}()
	}
	wg.Wait()
	all := driveOut{wall: time.Since(start)}
	for i := range outs {
		o := &outs[i]
		all.idx = append(all.idx, o.idx...)
		all.latMs = append(all.latMs, o.latMs...)
		all.samples = append(all.samples, o.samples...)
		all.bodyBytes += o.bodyBytes
		all.absorb(*o)
	}
	return all
}

// send posts one request and reads the reply into buf. Every reply must be a
// complete 200 that is neither degraded nor breaker-skipped, and must come
// from the cache exactly when wantHit says so.
func (in *instance) send(client *http.Client, rq *request, stream, wantHit bool, buf *bytes.Buffer) error {
	url := in.urlJSON
	if stream {
		url = in.urlStream
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(rq.body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	if resp.Header.Get("X-Partsrv-Degraded") != "" || resp.Header.Get("X-Partsrv-Breaker") != "" {
		return fmt.Errorf("degraded or breaker-skipped response")
	}
	want := "miss"
	if wantHit {
		want = "hit"
	}
	if got := resp.Header.Get("X-Partsrv-Cache"); got != want {
		return fmt.Errorf("X-Partsrv-Cache = %q, want %q", got, want)
	}
	b := buf.Bytes()
	switch {
	case len(b) == 0:
		return fmt.Errorf("empty body")
	case stream && b[len(b)-1] != '\n':
		return fmt.Errorf("NDJSON body does not end on a line boundary")
	case !stream && (resp.ContentLength != int64(len(b)) || b[len(b)-1] != '}'):
		return fmt.Errorf("JSON body truncated: %d of %d bytes", len(b), resp.ContentLength)
	}
	return nil
}

// preloadSeq is the hot set as a sequence of JSON-endpoint ops.
func (w *svcWorkload) preloadSeq() []opRef {
	seq := make([]opRef, len(w.preload))
	for i, r := range w.preload {
		seq[i] = opRef{req: r}
	}
	return seq
}

// setUp generates the workload, stands an instance up, preloads the hot set
// and runs the warm-up ops: everything between process start and the first
// timed op. The returned pass carries the hot set's responses.
func setUp(name string, seed uint64, seconds float64) (*svcWorkload, *instance, driveOut, error) {
	w, err := generate(name, seed, seconds)
	if err != nil {
		return nil, nil, driveOut{}, err
	}
	in, err := startInstance()
	if err != nil {
		return nil, nil, driveOut{}, err
	}
	// Every answer to the hot set is kept: verified once, in depth.
	warm := in.drive(w.requests, w.preloadSeq(), driveOpts{preloading: true, keep: func(int) bool { return true }})
	warm.absorb(in.drive(w.requests, w.seq[:w.warmup], driveOpts{}))
	return w, in, warm, nil
}

// runSvc is the untraced run of a partsrv workload: the end-to-end metrics.
func runSvc(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	var (
		w      *svcWorkload
		in     *instance
		warm   driveOut
		setups []float64
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if in != nil {
			if err := in.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		w, in, warm, err = setUp(cfg.workload, cfg.seed, cfg.seconds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.count(warm.attempted, warm.failed, warm.firstErr)
	}
	defer in.stop()

	timed := w.seq[w.warmup:]
	res.set("live_heap_mb", liveHeapMiB())
	calib0 := calibrate()
	mem0, cpu0 := readMem(), cpuTime()
	out := in.drive(w.requests, timed, driveOpts{window: cfg.window(), keep: func(i int) bool { return i%w.stride == 0 }})
	cpu1, mem1 := cpuTime(), readMem()
	res.finishCalib(calib0)
	res.count(out.attempted, out.failed, out.firstErr)

	v := newVerifier()
	hotPts, verr := v.checkSamples(w, w.preloadSeq(), warm.samples)
	res.fails(verr)
	timedPts, verr := v.checkSamples(w, timed, out.samples)
	res.fails(verr)

	res.set("setup_s", median(setups))
	res.setTimed(out.latMs, out.wall, cpu1-cpu0, mem0, mem1)
	res.set("sim_efficiency", simEfficiency(w, hotPts, timedPts))
	return res, nil
}
