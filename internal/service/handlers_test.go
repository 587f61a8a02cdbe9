package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sfccube/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := NewService(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHandlerHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
}

func TestHandlerGetQueryAndCacheHeaders(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/partition?ne=6&nparts=12&method=sfc"

	get := func() (*http.Response, Response) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp, r
	}

	h1, r1 := get()
	if h1.Header.Get("X-Partsrv-Cache") != "miss" {
		t.Errorf("first request cache header %q, want miss", h1.Header.Get("X-Partsrv-Cache"))
	}
	if r1.Strategy != "SFC" || len(r1.Assignment) != 6*6*6 {
		t.Errorf("strategy=%s len(assignment)=%d", r1.Strategy, len(r1.Assignment))
	}
	h2, r2 := get()
	if h2.Header.Get("X-Partsrv-Cache") != "hit" {
		t.Errorf("second request cache header %q, want hit", h2.Header.Get("X-Partsrv-Cache"))
	}
	if r2.Key != r1.Key {
		t.Errorf("keys differ across identical requests: %s vs %s", r1.Key, r2.Key)
	}
	if got := counter(t, s, "partsrv_computations_total"); got != 1 {
		t.Errorf("computations = %v, want 1", got)
	}
	if got := counter(t, s, `partsrv_http_requests_total{code="200",endpoint="partition"}`); got != 2 {
		t.Errorf("http requests counter = %v, want 2", got)
	}
}

func TestHandlerPostJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"ne": 4, "nparts": 6, "method": "rb", "seed": 7}`
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Method != "rb" || r.Seed != 7 {
		t.Errorf("method=%s seed=%d, want rb/7", r.Method, r.Seed)
	}
	validate(t, r)
}

func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNe: 16})
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/partition?ne=banana&nparts=4", http.StatusBadRequest},
		{"/v1/partition?ne=4&nparts=banana", http.StatusBadRequest},
		{"/v1/partition?ne=999&nparts=4", http.StatusBadRequest},
		{"/v1/partition?ne=4&nparts=4&method=bogus", http.StatusBadRequest},
		{"/v1/partition?ne=4&nparts=4&max_lb=banana", http.StatusBadRequest},
		// 24 elements into 5 parts with a perfect-balance demand: the
		// well-formed request is unsatisfiable → 422.
		{"/v1/partition?ne=2&nparts=5&max_lb=0", http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (error %q)", c.url, resp.StatusCode, c.want, e["error"])
		}
		if e["error"] == "" {
			t.Errorf("%s: no JSON error body", c.url)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(`{"ne": `))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Wrong verb: the partition endpoints accept GET and POST only.
	for _, path := range []string{"/v1/partition", "/v1/partition/stream"} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+path+"?ne=4&nparts=4", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s: status %d, want 405", path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") != "GET, POST" {
			t.Errorf("DELETE %s: Allow = %q, want \"GET, POST\"", path, resp.Header.Get("Allow"))
		}
		if e["error"] == "" {
			t.Errorf("DELETE %s: no JSON error body", path)
		}
	}
}

// TestHandlerShedStatusCodes maps each admission shed onto its HTTP shape:
// queue full → 429, queued-past-deadline → 503, both with Retry-After; an
// unparseable X-Partsrv-Timeout → 400.
func TestHandlerShedStatusCodes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/partition?ne=4&nparts=6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("queue-full shed: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("queue-full shed: Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	s.adm.release()

	// A server with a queue: a request whose X-Partsrv-Timeout expires
	// while it waits is shed with 503.
	s2, ts2 := newTestServer(t, Config{Workers: 1})
	if err := s2.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, ts2.URL+"/v1/partition?ne=4&nparts=6", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Partsrv-Timeout", "50ms")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("queue-timeout shed: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-timeout shed carries no Retry-After")
	}
	s2.adm.release()

	// Once the worker frees, the same request (with a generous budget)
	// succeeds.
	req.Header.Set("X-Partsrv-Timeout", "30s")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request: status %d, want 200", resp.StatusCode)
	}

	// Malformed timeout header.
	req.Header.Set("X-Partsrv-Timeout", "soon")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout header: status %d, want 400", resp.StatusCode)
	}
}

// TestHandlerStream: the NDJSON stream must reassemble to exactly the
// assignment of the plain endpoint, chunked as the header declares.
func TestHandlerStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plain, err := http.Get(ts.URL + "/v1/partition?ne=6&nparts=9")
	if err != nil {
		t.Fatal(err)
	}
	var want Response
	if err := json.NewDecoder(plain.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()

	resp, err := http.Get(ts.URL + "/v1/partition/stream?ne=6&nparts=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if resp.Header.Get("X-Partsrv-Cache") != "hit" {
		t.Error("stream endpoint bypassed the shared cache")
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr streamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Assignment != nil {
		t.Error("header line carries the assignment; it must only be chunked")
	}
	if hdr.Stats.EdgeCut != want.Stats.EdgeCut || hdr.Key != want.Key {
		t.Errorf("stream header disagrees with plain response")
	}
	got := make([]int32, 0, 6*6*6)
	lines := 0
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("chunk line: %v", err)
		}
		if line.Offset != len(got) {
			t.Fatalf("chunk offset %d, want %d (out of order?)", line.Offset, len(got))
		}
		got = append(got, line.Assignment...)
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != hdr.Chunks {
		t.Errorf("%d chunk lines, header declared %d", lines, hdr.Chunks)
	}
	if !bytes.Equal(int32Bytes(got), int32Bytes(want.Assignment)) {
		t.Error("streamed assignment differs from plain assignment")
	}
}

// TestHandlerStreamChunking exercises multi-chunk streaming by shrinking
// nothing: Ne=16 gives 1536 elements — still one chunk — so instead verify
// the chunk math against a synthetic big response via the header fields.
func TestHandlerStreamChunkMath(t *testing.T) {
	for _, k := range []int{1, streamChunk, streamChunk + 1, 3 * streamChunk} {
		chunks := (k + streamChunk - 1) / streamChunk
		if chunks < 1 && k > 0 {
			t.Errorf("k=%d: %d chunks", k, chunks)
		}
		covered := 0
		for off := 0; off < k; off += streamChunk {
			covered += min(off+streamChunk, k) - off
		}
		if covered != k {
			t.Errorf("k=%d: chunks cover %d", k, covered)
		}
	}
}

func int32Bytes(s []int32) []byte {
	var b bytes.Buffer
	for _, v := range s {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.Bytes()
}

// TestMetricsEndpointComposition: AttachObs on the service mux exposes the
// service's own counters over HTTP — the loop the load harness closes.
func TestMetricsEndpointComposition(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewService(Config{Registry: reg})
	mux := s.Handler()
	AttachObs(mux, reg)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if _, err := http.Get(ts.URL + "/v1/partition?ne=4&nparts=6"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"partsrv_requests_total 1",
		"partsrv_computations_total 1",
		"# TYPE partsrv_compute_ns histogram",
		`partsrv_http_requests_total{code="200",endpoint="partition"} 1`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	_ = s
}
