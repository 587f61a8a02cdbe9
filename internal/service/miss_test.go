package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sfccube/internal/obs"
)

// TestSFCMissAllocationBudget is the alarm for "someone forced the graph
// again": one Ne=64 method=sfc miss must stay a curve build, a cut, streamed
// stats and one document printed into a buffer of its exact size. With the
// mesh neighbour tables and the CSR dual graph materialised it allocated
// 6.6 MB; without them 1.45 MB, and 1.17 MB once the stats sweep stopped
// copying its per-part vectors. Nothing on the path is pooled, so the figure
// repeats to within a kilobyte, -race or not; the budget is that + 10 %.
func TestSFCMissAllocationBudget(t *testing.T) {
	s := newTestService(t, Config{})
	anyLB := -1.0
	miss := func(nparts int) {
		if _, meta, err := s.Partition(context.Background(), Request{Ne: 64, NParts: nparts, Method: "sfc", MaxLB: &anyLB}); err != nil || meta.CacheHit {
			t.Fatalf("nparts=%d: err=%v hit=%v", nparts, err, meta.CacheHit)
		}
	}
	miss(1000) // warm lazily initialised state (metric handles)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	miss(1001)
	runtime.ReadMemStats(&after)
	const budget = 1_169_640 * 11 / 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Ne=64 sfc miss allocated %d bytes, budget %d", got, budget)
	}
}

// TestHitAllocationBudget: a cache hit through the service mux, with a live
// registry as the daemon runs it, resolves nothing per request. The cache is
// keyed by the canonical request, the status counter is a handle resolved on
// first use, and the reply's header values are shared or kept on the entry.
// What is left is the query parse, the status recorder and the stream's line
// fragment: 9 objects for a JSON hit and 10 for a stream hit, against 27 and
// 26 when every hit hashed its key and looked its counter up by labels.
func TestHitAllocationBudget(t *testing.T) {
	h := registryHandler(Config{})
	w := &discardWriter{h: http.Header{}}
	for _, c := range []struct {
		path   string
		budget float64
	}{{"/v1/partition", 9}, {"/v1/partition/stream", 10}} {
		r := httptest.NewRequest(http.MethodGet, c.path+"?ne=64&nparts=96&method=sfc&max_lb=-1", nil)
		w.serve(h, r) // computes the entry or hits it, and resolves the handles
		if got := testing.AllocsPerRun(50, func() { w.serve(h, r) }); got > c.budget {
			t.Errorf("%s: a hit allocates %.0f objects, budget %.0f", c.path, got, c.budget)
		}
	}
}

// BenchmarkServiceMiss times one cache miss end to end through
// Service.Partition (substrate, weights, partition, stats, encode). The
// iterations cycle through K/16 values of nparts, K/16 up to K/8-1, and the
// cache holds one entry, so an iteration never finds its own key cached,
// however many iterations run. sfc-hv is the weighted sfc miss: the same
// request with a weights_spec, so it also generates and splits by element
// weights.
func BenchmarkServiceMiss(b *testing.B) {
	anyLB := -1.0
	for _, c := range []struct {
		name, method, weights string
		nes                   []int
	}{
		{"sfc", "sfc", "", []int{32, 128}},
		{"kway", "kway", "", []int{32, 128}},
		{"sfc-hv", "sfc", "hv:amp=16,m=6", []int{128}},
	} {
		for _, ne := range c.nes {
			b.Run(fmt.Sprintf("%s/Ne%d", c.name, ne), func(b *testing.B) {
				s := NewService(Config{CacheEntries: 1})
				k := 6 * ne * ne
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := Request{Ne: ne, NParts: k/16 + i%(k/16), Method: c.method, MaxLB: &anyLB, WeightsSpec: c.weights}
					if _, meta, err := s.Partition(context.Background(), req); err != nil || meta.CacheHit {
						b.Fatalf("nparts=%d: err=%v hit=%v", req.NParts, err, meta.CacheHit)
					}
				}
			})
		}
	}
}

// discardWriter is an http.ResponseWriter that counts the body and keeps
// nothing, so a benchmark times the handler and not a recorder's buffer.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// serve runs one request through h and returns the body length.
func (w *discardWriter) serve(h http.Handler, r *http.Request) int {
	w.n = 0
	h.ServeHTTP(w, r)
	return w.n
}

// BenchmarkServiceRequest times one request through the service mux
// (instrumentation, parsing, lookup, reply) into a discarding writer: a JSON
// hit, a stream hit for the same cached entry, and a stream miss. Service,
// handler and requests are built, and for the hit cases the entry is cached,
// before the timer starts. The miss cases rotate eight keys through a
// one-entry cache, so every request computes. The -reg cases are the hits
// again with a live registry, wired as the partsrv daemon wires it: the
// production hit path, metric handles included.
func BenchmarkServiceRequest(b *testing.B) {
	get := func(path string, ne, nparts int) *http.Request {
		return httptest.NewRequest(http.MethodGet, fmt.Sprintf("%s?ne=%d&nparts=%d&method=sfc&max_lb=-1", path, ne, nparts), nil)
	}
	for _, c := range []struct {
		name, path string
		keys       int
		reg        bool
	}{
		{"hit", "/v1/partition", 1, false},
		{"stream-hit", "/v1/partition/stream", 1, false},
		{"stream-miss", "/v1/partition/stream", 8, false},
		{"hit-reg", "/v1/partition", 1, true},
		{"stream-hit-reg", "/v1/partition/stream", 1, true},
	} {
		for _, ne := range []int{16, 64, 128} {
			b.Run(fmt.Sprintf("%s/Ne%d", c.name, ne), func(b *testing.B) {
				var h *http.ServeMux
				if c.reg {
					h = registryHandler(Config{CacheEntries: 1})
				} else {
					h = NewService(Config{CacheEntries: 1}).Handler()
				}
				reqs := make([]*http.Request, c.keys)
				for i := range reqs {
					reqs[i] = get(c.path, ne, 96+i)
				}
				w := &discardWriter{h: http.Header{}}
				b.SetBytes(int64(w.serve(h, reqs[0]))) // and cache the entry the hit cases read
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if w.serve(h, reqs[(i+1)%len(reqs)]) == 0 {
						b.Fatal("empty reply")
					}
				}
			})
		}
	}
}

// registryHandler builds the service mux with a live registry, the way the
// partsrv daemon builds it: metrics on every endpoint, /metrics beside them.
func registryHandler(cfg Config) *http.ServeMux {
	cfg.Registry = obs.NewRegistry()
	mux := NewService(cfg).Handler()
	AttachObs(mux, cfg.Registry)
	return mux
}

// TestStreamHitCostsWhatAJSONHitCosts: both endpoints are views of one cached
// byte string, so a stream hit may allocate at most two objects more than a
// JSON hit (Ne=64, two chunks), and a stream reply is the same bytes whether
// it was computed or cached.
func TestStreamHitCostsWhatAJSONHitCosts(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	miss, _ := postStream(t, h, Request{Ne: 64, NParts: 96, Method: "sfc"})
	hit, state := postStream(t, h, Request{Ne: 64, NParts: 96, Method: "sfc"})
	if state != "hit" || !bytes.Equal(miss, hit) {
		t.Errorf("second stream request was a cache %s; bodies equal: %v", state, bytes.Equal(miss, hit))
	}
	const query = "?ne=64&nparts=96&method=sfc"
	w := &discardWriter{h: http.Header{}}
	allocs := func(path string) float64 {
		r := httptest.NewRequest(http.MethodGet, path+query, nil)
		return testing.AllocsPerRun(50, func() { w.serve(h, r) })
	}
	plain, stream := allocs("/v1/partition"), allocs("/v1/partition/stream")
	if stream > plain+2 {
		t.Errorf("a stream hit allocates %.0f objects, a JSON hit %.0f: want at most +2", stream, plain)
	}
}
