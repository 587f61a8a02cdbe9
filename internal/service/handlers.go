package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/resilience"
)

// streamChunk is the default number of assignment entries per NDJSON line.
const streamChunk = 16384

// Handler returns the service mux: /healthz, /v1/partition (JSON) and
// /v1/partition/stream (NDJSON for large K). Observability surfaces are
// mounted separately with AttachObs so daemons compose them on the same
// mux.
func (s *Service) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/partition", s.instrument("partition", s.handlePartition))
	mux.HandleFunc("/v1/partition/stream", s.instrument("stream", s.handleStream))
	return mux
}

// statusRecorder captures the response code for the per-endpoint metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// counterFamily holds one labelled counter's handles by a small key (a status
// code, a chaos kind), each resolved through the registry on first use, as a
// direct registry call would be, and read without its mutex after that.
type counterFamily struct{ m sync.Map }

// inc counts one under key; two first uses resolve the same handle.
func (f *counterFamily) inc(key int, resolve func() *obs.Counter) {
	c, ok := f.m.Load(key)
	if !ok {
		c, _ = f.m.LoadOrStore(key, resolve())
	}
	c.(*obs.Counter).Inc()
}

// instrument wraps h with per-endpoint latency and request/code counters.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.cfg.Registry
	reg.Help("partsrv_http_requests_total", "HTTP requests by endpoint and status code.")
	reg.Help("partsrv_http_latency_ns", "HTTP request latency by endpoint.")
	lat := reg.Histogram("partsrv_http_latency_ns", "endpoint", endpoint)
	var codes counterFamily
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		lat.Observe(time.Since(start).Nanoseconds())
		codes.inc(rec.code, func() *obs.Counter {
			return reg.Counter("partsrv_http_requests_total", "endpoint", endpoint, "code", strconv.Itoa(rec.code))
		})
	}
}

// methodError rejects a verb other than GET and POST; writeError maps it to a
// 405 carrying an Allow header.
type methodError struct{ verb string }

func (e *methodError) Error() string { return "method " + e.verb + " not allowed (use GET or POST)" }

// parseRequest reads a Request from a JSON body (POST) or query parameters
// (GET, or POST without a body). Absent seed/max_lb stay absent — the
// zero-vs-unset distinction is preserved all the way down.
func parseRequest(r *http.Request) (Request, error) {
	var req Request
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		return req, &methodError{r.Method}
	}
	if r.Method == http.MethodPost && r.Body != nil && r.ContentLength != 0 {
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, &BadRequestError{Reason: "invalid JSON body: " + err.Error()}
		}
		return req, nil
	}
	q := r.URL.Query()
	atoi := func(name string) (int, error) {
		v, err := strconv.Atoi(q.Get(name))
		if err != nil {
			return 0, &BadRequestError{Reason: fmt.Sprintf("parameter %s: %v", name, err)}
		}
		return v, nil
	}
	var err error
	if req.Ne, err = atoi("ne"); err != nil {
		return req, err
	}
	if req.NParts, err = atoi("nparts"); err != nil {
		return req, err
	}
	req.Method = q.Get("method")
	req.WeightsSpec = q.Get("weights_spec")
	if q.Has("seed") {
		v, err := strconv.ParseInt(q.Get("seed"), 10, 64)
		if err != nil {
			return req, &BadRequestError{Reason: "parameter seed: " + err.Error()}
		}
		req.Seed = &v
	}
	if q.Has("max_lb") {
		v, err := strconv.ParseFloat(q.Get("max_lb"), 64)
		if err != nil {
			return req, &BadRequestError{Reason: "parameter max_lb: " + err.Error()}
		}
		req.MaxLB = &v
	}
	if q.Has("deadline_ms") {
		v, err := strconv.ParseInt(q.Get("deadline_ms"), 10, 64)
		if err != nil {
			return req, &BadRequestError{Reason: "parameter deadline_ms: " + err.Error()}
		}
		req.DeadlineMS = v
	}
	return req, nil
}

// writeError renders err as a JSON error object with the right status:
// 400 for validation failures, 405 for a verb other than GET and POST, 422
// for an exhausted fallback chain (the request was well-formed but
// unsatisfiable), 429 for a full admission queue and 503 for the other sheds
// (both with a Retry-After hint), 500 otherwise.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var retryAfter time.Duration
	var bad *BadRequestError
	var ex *resilience.ExhaustedError
	var qf *QueueFullError
	var ds *DeadlineTooShortError
	var qt *QueueTimeoutError
	var me *methodError
	switch {
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	case errors.As(err, &me):
		code = http.StatusMethodNotAllowed
		w.Header().Set("Allow", "GET, POST")
	case errors.As(err, &ex):
		code = http.StatusUnprocessableEntity
	case errors.As(err, &qf):
		code = http.StatusTooManyRequests
		retryAfter = qf.RetryAfter
	case errors.As(err, &ds):
		code = http.StatusServiceUnavailable
		retryAfter = ds.RetryAfter
	case errors.As(err, &qt):
		code = http.StatusServiceUnavailable
		retryAfter = qt.RetryAfter
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// requestContext derives the call context: an X-Partsrv-Timeout header (a
// Go duration) becomes a context deadline, which is what the admission
// layer's deadline-aware shed consults. This is the caller's patience —
// distinct from deadline_ms, which is the compute quality budget.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	h := r.Header.Get("X-Partsrv-Timeout")
	if h == "" {
		return r.Context(), func() {}, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil || d <= 0 {
		return nil, nil, &BadRequestError{Reason: fmt.Sprintf("header X-Partsrv-Timeout: invalid duration %q", h)}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// Header values every reply carries, shared by all replies. No code writes to
// them: net/http only reads them, and Header.Add appends to a copy.
var (
	cacheHit, cacheMiss  = []string{"hit"}, []string{"miss"}
	jsonType, ndjsonType = []string{"application/json"}, []string{"application/x-ndjson"}
)

// answer is the front half of both endpoints: request parsing, caller
// deadline, lookup, then the per-call envelope headers (the cached payload
// bytes are not touched) and the content type. On any failure it has already
// written the error response and reports ok = false.
func (s *Service) answer(w http.ResponseWriter, r *http.Request, contentType []string) (e entry, ok bool) {
	req, err := parseRequest(r)
	if err != nil {
		writeError(w, err)
		return entry{}, false
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, err)
		return entry{}, false
	}
	defer cancel()
	e, meta, err := s.lookup(ctx, req)
	if err != nil {
		writeError(w, err)
		return entry{}, false
	}
	h := w.Header()
	h["X-Partsrv-Cache"], h["Content-Type"] = cacheMiss, contentType
	if meta.CacheHit {
		h["X-Partsrv-Cache"] = cacheHit
	}
	if meta.Shared {
		h.Set("X-Partsrv-Shared", "true")
	}
	if meta.Degraded {
		h.Set("X-Partsrv-Degraded", "true")
	}
	if meta.BreakerOpen {
		h.Set("X-Partsrv-Breaker", "open")
	}
	return e, true
}

// handlePartition answers one request with the full JSON response (the
// cached bytes verbatim on a hit).
func (s *Service) handlePartition(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.answer(w, r, jsonType); ok {
		w.Header()["Content-Length"] = e.length
		_, _ = w.Write(e.doc)
	}
}

// handleStream answers one request as NDJSON: a header line with the stats
// and strategy, then the assignment in fixed-size chunks, all of it byte
// ranges of the document the JSON endpoint sends (entry.writeStream). Nothing
// is flushed explicitly: every byte exists before the first Write and a chunk
// far exceeds net/http's buffer, so chunk i is on the wire as i+1 is written.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	if e, ok := s.answer(w, r, ndjsonType); ok {
		_ = e.writeStream(w) // an error here is the client hanging up
	}
}
