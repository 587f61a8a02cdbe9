package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"sfccube/internal/service"
)

// Workload names. Later issues refer to them; BENCHMARK.json declares them.
const (
	wlMissSFC   = "svc-miss-sfc"
	wlMissMetis = "svc-miss-metis"
	wlHot       = "svc-hot"
	wlSeamStep  = "seam-step"
)

var workloadNames = []string{wlMissSFC, wlMissMetis, wlHot, wlSeamStep}

// rng is the benchmark's own generator (splitmix64): the op sequence is a
// pure function of the seed and of nothing the program under test owns.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// kron is the i-th point of the Kronecker sequence with step alpha. The class
// of op i (mesh size, method, weighted or not) is read off such sequences, so
// every seed — and every arithmetic subsequence, the verification sample
// included — sees the same class mix to within O(log n / n); only the values
// inside a class come from the seeded generator. That keeps the latency
// percentiles inside one size class and the cross-seed spread of every metric
// small.
func kron(i int, alpha float64) float64 {
	_, f := math.Modf(float64(i+1) * alpha)
	return f
}

var (
	alphaA = math.Sqrt2 - 1
	alphaB = math.Sqrt(3) - 1
	alphaC = math.Sqrt(5) - 2
	alphaD = math.Sqrt(7) - 2
)

// request is one distinct request the driver can send.
type request struct {
	req  service.Request
	body []byte // JSON body, marshalled outside every timed region
	// preloaded marks a member of the hot working set: it is sent during
	// set-up, so every later send must be answered from the cache.
	preloaded bool
}

// opRef is one op of a sequence: which request, on which endpoint.
type opRef struct {
	req    int32
	stream bool
}

// svcWorkload is a generated partsrv workload.
type svcWorkload struct {
	requests []request
	preload  []int32 // requests sent once in set-up, before the warm-up
	seq      []opRef
	warmup   int // leading ops of seq run untimed in set-up
	// stride: every stride-th timed response is kept and verified in depth
	// after the timed window. simOps: the sampled ops below this timed index
	// are the fixed sample sim_efficiency is taken over.
	stride, simOps int
	// traceOps is the length of the traced prefix (both HTTP passes);
	// replayOps that of the in-process and stage-by-stage replays.
	traceOps, replayOps int
}

// refRate is the op rate of the seed commit on the 2-core reference host.
// It sizes what must be fixed before a run starts — the generated sequence
// (several times what the window can consume), the warm-up (5 % of a
// window's ops) and the traced prefix — so that those counts, and every
// count derived from them, repeat exactly for a seed.
var refRate = map[string]float64{wlMissSFC: 120, wlMissMetis: 65, wlHot: 1700, wlSeamStep: 64}

func newRequest(r service.Request) request {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of ints and strings always marshals
	}
	return request{req: r, body: b}
}

func ptr[T any](v T) *T { return &v }

// generate builds the named partsrv workload for a window of the given
// length.
func generate(name string, seed uint64, seconds float64) (*svcWorkload, error) {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + uint64(len(name))}
	refOps := refRate[name] * seconds
	w := &svcWorkload{warmup: max(2, int(refOps*0.05))}
	switch name {
	case wlMissSFC:
		// Distinct (Ne, nparts, weights_spec) triples bound the sequence: Ne=32
		// has 2977 admissible nparts.
		genMissSFC(w, r, min(int(refOps*6), 8000))
		w.stride, w.simOps = 17, int(refOps*0.45)
		w.traceOps, w.replayOps = int(refOps*0.4), int(refOps*0.15)
	case wlMissMetis:
		genMissMetis(w, r, int(refOps*6))
		w.stride, w.simOps = 13, int(refOps*0.45)
		w.traceOps, w.replayOps = int(refOps*0.3), int(refOps*0.15)
	case wlHot:
		genHot(w, r, int(refOps*5))
		w.stride, w.simOps = 251, int(refOps*0.45)
		w.traceOps, w.replayOps = int(refOps*0.4), int(refOps*0.4)
	default:
		return nil, fmt.Errorf("unknown partsrv workload %q", name)
	}
	w.traceOps, w.replayOps = max(w.traceOps, 4), max(w.replayOps, 4)
	if need := w.warmup + w.traceOps; len(w.seq) < need {
		return nil, fmt.Errorf("%s: generated %d ops, need %d", name, len(w.seq), need)
	}
	return w, nil
}

func (w *svcWorkload) add(r service.Request, stream bool) {
	w.requests = append(w.requests, newRequest(r))
	w.seq = append(w.seq, opRef{req: int32(len(w.requests) - 1), stream: stream})
}

// genMissSFC: method=sfc, every cache key distinct, Ne 32/64/128 at
// 40/40/20 %, nparts in [K/64, K/2], a quarter weighted. max_lb=-1 because an
// arbitrary nparts leaves a remainder the default 10 % balance gate refuses.
func genMissSFC(w *svcWorkload, r *rng, n int) {
	type key struct {
		ne, nparts int
		spec       string
	}
	used := make(map[key]bool, n)
	for i := 0; i < n; i++ {
		ne := 128
		if u := kron(i, alphaA); u < 0.4 {
			ne = 32
		} else if u < 0.8 {
			ne = 64
		}
		spec := ""
		if kron(i, alphaC) < 0.25 {
			spec = "cfl"
			if kron(i, alphaD) < 0.5 {
				spec = "hv:amp=16,m=6"
			}
		}
		k := 6 * ne * ne
		lo, hi := k/64, k/2
		span := hi - lo + 1
		jitter := max(2, span/64)
		nparts := lo + int(kron(i, alphaB)*float64(span)) + r.intn(jitter) - jitter/2
		nparts = min(max(nparts, lo), hi)
		for used[key{ne, nparts, spec}] {
			if nparts++; nparts > hi {
				nparts = lo
			}
		}
		used[key{ne, nparts, spec}] = true
		w.add(service.Request{Ne: ne, NParts: nparts, Method: "sfc", MaxLB: ptr(-1.0), WeightsSpec: spec}, false)
	}
}

// genMissMetis: kway/rb/auto at 50/30/20 %, distinct seeds, the paper's
// few-elements-per-processor regime (4 or 16 per part). Ne 16/32/48 at
// 48/38/14 % puts the 95th percentile inside the (Ne=48, K/4) class (7 % of
// ops), not on a class boundary. max_lb=0.25: at 4 elements per part K-way's
// own 3 % tolerance already allows a part of 5 (LB 0.2), which the default
// 10 % gate refuses every time — three reseeds, then RB, then SFC, and after
// five such requests in a row an open breaker, which this benchmark counts
// as a failed op.
func genMissMetis(w *svcWorkload, r *rng, n int) {
	usedSeed := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		method := "auto"
		if u := kron(i, alphaA); u < 0.5 {
			method = "kway"
		} else if u < 0.8 {
			method = "rb"
		}
		ne := 48
		if u := kron(i, alphaB); u < 0.48 {
			ne = 16
		} else if u < 0.86 {
			ne = 32
		}
		nparts := 6 * ne * ne / 16
		if kron(i, alphaC) < 0.5 {
			nparts = 6 * ne * ne / 4
		}
		seed := int64(r.next() >> 1)
		for usedSeed[seed] {
			seed++
		}
		usedSeed[seed] = true
		w.add(service.Request{Ne: ne, NParts: nparts, Method: method, Seed: &seed, MaxLB: ptr(0.25)}, false)
	}
}

// hotDivisors: the hot set's part counts are K/d, all exact divisors of
// K = 6 Ne^2 for Ne = 16, 32, 64.
var hotDivisors = []int{4, 6, 8, 12, 16, 24, 32, 48}

// genHot: a 48-key working set (Ne 16/32/64 x sfc/kway x 8 nparts) preloaded
// in set-up and read with Zipf(1.1) popularity, alternating the JSON and the
// NDJSON endpoint, with a fresh-key Ne=16 kway miss every 50th op. The
// rank -> key map is fixed (a stride over the size-major key list) so the
// popular keys span all three sizes for every seed; the seed picks the kway
// seeds, the draws and the fresh keys.
func genHot(w *svcWorkload, r *rng, n int) {
	for _, ne := range []int{16, 32, 64} {
		for _, method := range []string{"sfc", "kway"} {
			for _, d := range hotDivisors {
				req := service.Request{Ne: ne, NParts: 6 * ne * ne / d, Method: method, MaxLB: ptr(-1.0)}
				if method == "kway" {
					req.Seed = ptr(int64(r.next() >> 2))
				}
				rq := newRequest(req)
				rq.preloaded = true
				w.requests = append(w.requests, rq)
				w.preload = append(w.preload, int32(len(w.requests)-1))
			}
		}
	}
	nkeys := len(w.requests)
	cum := make([]float64, nkeys)
	total := 0.0
	for rank := range cum {
		total += 1 / math.Pow(float64(rank+1), 1.1)
		cum[rank] = total
	}
	for i := 0; i < n; i++ {
		stream := i%2 == 1
		if i%50 == 49 {
			nparts := 6 * 16 * 16 / 16
			if r.intn(2) == 0 {
				nparts = 6 * 16 * 16 / 4
			}
			// Seeds above 2^62 cannot collide with the hot set's.
			seed := int64(1)<<62 + int64(i)<<20 + int64(r.intn(1<<20))
			w.add(service.Request{Ne: 16, NParts: nparts, Method: "kway", Seed: &seed, MaxLB: ptr(-1.0)}, stream)
			continue
		}
		rank := sort.SearchFloat64s(cum, r.float()*total)
		w.seq = append(w.seq, opRef{req: int32(rank * 29 % nkeys), stream: stream})
	}
}
