// Command benchgate compares `go test -bench` output against the recorded
// baselines in BENCH_seam.json / BENCH_metis.json / BENCH_service.json and
// fails when a gated benchmark regresses past the tolerance.
//
// It reads benchmark output (one or more -count repetitions) from stdin or
// -input, takes the median ns/op per benchmark, maps benchmark names onto
// the baseline keys of the newest entry in each -baseline file, and writes
// a machine-readable delta report with -out. Benchmarks in -gate fail the
// run (exit 1) when slower than baseline*(1+tolerance); everything else is
// report-only, so the noisy long tail cannot block a merge.
//
// With -benchmem in the input it also takes the median B/op and allocs/op
// and prints both beside a baseline that carries <key>_bytes_per_op /
// <key>_allocs_per_op. Allocation sizes repeat run to run where times do
// not, so the benchmarks in bytesGated fail the run when their B/op leaves
// baseline*(1 +/- 2%) in either direction (an improvement means the baseline
// is stale): that gate is hard, the time gate advisory. Everything else —
// every allocs/op, and B/op of a benchmark that runs on pooled memory, which
// depends on when the collector last emptied the pool — is report-only.
//
// Usage (what the CI bench-gate job runs):
//
//	go test -run '^$' -bench 'BenchmarkRunnerStep(P2)?$' -benchtime 30x -count 3 . > seam.txt
//	go test ./internal/metis -run '^$' -bench 'K384P96$' -benchtime 10x -count 3 >> seam.txt
//	benchgate -input seam.txt -baseline BENCH_seam.json -baseline BENCH_metis.json \
//	    -gate BenchmarkRunnerStep,BenchmarkRunnerStepP2,BenchmarkRBK384P96 -tolerance 0.20 -out bench-delta.json
//
// See TESTING.md ("Benchmark gate") for the tolerance and baseline-refresh
// policy.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// keyOf maps benchmark function names to the ns/op keys used by the
// baseline JSON entries. Benchmarks without a mapping are reported with an
// empty key and never gated.
var keyOf = map[string]string{
	"BenchmarkRunnerStep":      "runner_step_ns_per_op",
	"BenchmarkRunnerStepObs":   "runner_step_obs_ns_per_op",
	"BenchmarkSEAMStep":        "seq_step_ns_per_op",
	"BenchmarkRHS":             "rhs_ns_per_op",
	"BenchmarkDSSApply":        "dss_apply_scalar_plus_vector_ns_per_op",
	"BenchmarkRBK384P96":       "rb_k384_p96_ns_per_op",
	"BenchmarkKWayK384P96":     "kway_k384_p96_ns_per_op",
	"BenchmarkKWayVolK384P96":  "kwayvol_k384_p96_ns_per_op",
	"BenchmarkRBK13824P768":    "rb_k13824_p768_ns_per_op",
	"BenchmarkKWayK13824P768":  "kway_k13824_p768_ns_per_op",
	"BenchmarkKWayK13824P1536": "kway_k13824_p1536_ns_per_op",
	"BenchmarkRBK55296P3072":   "rb_k55296_p3072_ns_per_op",
	"BenchmarkKWayK55296P3072": "kway_k55296_p3072_ns_per_op",
	// The four stages of one top-level bisection (report-only).
	"BenchmarkBisectStages/coarsen/K13824": "bisect_coarsen_k13824_ns_per_op",
	"BenchmarkBisectStages/initial/K13824": "bisect_initial_k13824_ns_per_op",
	"BenchmarkBisectStages/refine/K13824":  "bisect_refine_k13824_ns_per_op",
	"BenchmarkBisectStages/split/K13824":   "bisect_split_k13824_ns_per_op",
	// The stages of one K-way partition into 768 parts (report-only).
	"BenchmarkKWayStages/coarsen/K13824P768":    "kway_coarsen_k13824_p768_ns_per_op",
	"BenchmarkKWayStages/initial/K13824P768":    "kway_initial_k13824_p768_ns_per_op",
	"BenchmarkKWayStages/balance/K13824P768":    "kway_balance_k13824_p768_ns_per_op",
	"BenchmarkKWayStages/refine-cut/K13824P768": "kway_refine_cut_k13824_p768_ns_per_op",
	"BenchmarkKWayStages/refine-vol/K13824P768": "kway_refine_vol_k13824_p768_ns_per_op",
	// Million-element regime (PR 7): the SFC pipeline at Ne=384 is gated in
	// CI; the 14M-element RB case is env-guarded (SCALE_BENCH=1) and its
	// baseline is refreshed by hand.
	"BenchmarkSFCParallelNe384": "sfc_parallel_ne384_ns_per_op",
	"BenchmarkRBK1536P12288":    "rb_ne1536_p12288_ns_per_op",
	// Weighted regime (PR 10): the Ne=384 pipeline cutting the curve into
	// near-equal-weight segments under the cfl physics proxy.
	"BenchmarkWeightedSFCNe384": "weighted_sfc_ne384_ns_per_op",
	// Raw-speed ceiling (PR 8): the pinned-parallelism scaling curve of the
	// epoch scheduler (P1 = one block on the caller, P2/P4 = blocks over 2/4
	// workers; P2 is gated since block scheduling made it a speed-up) and
	// the zero-alloc differentiation micro-kernel.
	"BenchmarkRunnerStepP1":  "runner_step_p1_ns_per_op",
	"BenchmarkRunnerStepP2":  "runner_step_p2_ns_per_op",
	"BenchmarkRunnerStepP4":  "runner_step_p4_ns_per_op",
	"BenchmarkDiffAlphaBeta": "diff_alpha_beta_ns_per_op",
	// Partition-service cache misses (BENCH_service.json): socket-free
	// Service.Partition, sub-benchmark names as go test prints them.
	"BenchmarkServiceMiss/sfc/Ne32":   "service_miss_sfc_ne32_ns_per_op",
	"BenchmarkServiceMiss/sfc/Ne128":  "service_miss_sfc_ne128_ns_per_op",
	"BenchmarkServiceMiss/kway/Ne32":  "service_miss_kway_ne32_ns_per_op",
	"BenchmarkServiceMiss/kway/Ne128": "service_miss_kway_ne128_ns_per_op",
	// A weighted sfc miss, and its weights stage alone (report-only).
	"BenchmarkServiceMiss/sfc-hv/Ne128": "service_miss_sfc_hv_ne128_ns_per_op",
	"BenchmarkGenerate/cfl/Ne32":        "generate_cfl_ne32_ns_per_op",
	"BenchmarkGenerate/cfl/Ne128":       "generate_cfl_ne128_ns_per_op",
	"BenchmarkGenerate/cfl/Ne384":       "generate_cfl_ne384_ns_per_op",
	"BenchmarkGenerate/hv/Ne32":         "generate_hv_ne32_ns_per_op",
	"BenchmarkGenerate/hv/Ne128":        "generate_hv_ne128_ns_per_op",
	"BenchmarkGenerate/hv/Ne384":        "generate_hv_ne384_ns_per_op",
	// One request through the service mux into a discarding writer: a JSON
	// hit, a stream hit for the same entry, a stream miss (report-only).
	"BenchmarkServiceRequest/hit/Ne16":          "service_request_hit_ne16_ns_per_op",
	"BenchmarkServiceRequest/hit/Ne64":          "service_request_hit_ne64_ns_per_op",
	"BenchmarkServiceRequest/hit/Ne128":         "service_request_hit_ne128_ns_per_op",
	"BenchmarkServiceRequest/stream-hit/Ne16":   "service_request_stream_hit_ne16_ns_per_op",
	"BenchmarkServiceRequest/stream-hit/Ne64":   "service_request_stream_hit_ne64_ns_per_op",
	"BenchmarkServiceRequest/stream-hit/Ne128":  "service_request_stream_hit_ne128_ns_per_op",
	"BenchmarkServiceRequest/stream-miss/Ne16":  "service_request_stream_miss_ne16_ns_per_op",
	"BenchmarkServiceRequest/stream-miss/Ne64":  "service_request_stream_miss_ne64_ns_per_op",
	"BenchmarkServiceRequest/stream-miss/Ne128": "service_request_stream_miss_ne128_ns_per_op",
	// The stats stage of an sfc miss on its own (view/Ne128 is gated in CI),
	// at three more elements-per-part ratios, and over the CSR graph a
	// multilevel miss reads (report-only).
	"BenchmarkProblemStats/view/Ne128":       "problem_stats_view_ne128_ns_per_op",
	"BenchmarkProblemStats/view/Ne32":        "problem_stats_view_ne32_ns_per_op",
	"BenchmarkProblemStats/view-per2/Ne128":  "problem_stats_view_per2_ne128_ns_per_op",
	"BenchmarkProblemStats/view-per16/Ne128": "problem_stats_view_per16_ne128_ns_per_op",
	"BenchmarkProblemStats/view-per64/Ne128": "problem_stats_view_per64_ne128_ns_per_op",
	"BenchmarkProblemStats/csr/Ne128":        "problem_stats_csr_ne128_ns_per_op",
	// What that stage reads: a sweep of every mesh row, and the rows of the
	// face-boundary ring alone (report-only).
	"BenchmarkAdjacencySweepNe48": "adjacency_sweep_ne48_ns_per_op",
	"BenchmarkRingRow":            "ring_row_ne128_ns_per_op",
}

// bytesGated lists the benchmarks whose B/op is held to the baseline's
// <key>_bytes_per_op within bytesTolerance: the two whose bytes are what a
// curve request allocates — visit order, assignment, stats, document — so a
// per-element table or temporary coming back is a failed run, not a slower
// one.
var bytesGated = map[string]bool{
	"BenchmarkServiceMiss/sfc/Ne128": true,
	"BenchmarkSFCParallelNe384":      true,
}

const bytesTolerance = 0.02

// Result is one benchmark's comparison in the delta artifact.
type Result struct {
	Benchmark  string  `json:"benchmark"`
	Key        string  `json:"key,omitempty"`
	Samples    int     `json:"samples"`
	MedianNs   float64 `json:"median_ns_per_op"`
	BaselineNs float64 `json:"baseline_ns_per_op,omitempty"`
	Ratio      float64 `json:"ratio,omitempty"` // measured / baseline
	Gated      bool    `json:"gated"`
	Regressed  bool    `json:"regressed"`
	// B/op, present when the input was taken with -benchmem.
	MedianBytes   float64 `json:"median_bytes_per_op,omitempty"`
	BaselineBytes float64 `json:"baseline_bytes_per_op,omitempty"`
	BytesRatio    float64 `json:"bytes_ratio,omitempty"`
	BytesGated    bool    `json:"bytes_gated,omitempty"`
	BytesMoved    bool    `json:"bytes_moved,omitempty"` // outside 1 +/- bytesTolerance
	// allocs/op, from the same columns; never gated.
	MedianAllocs   float64 `json:"median_allocs_per_op,omitempty"`
	BaselineAllocs float64 `json:"baseline_allocs_per_op,omitempty"`
}

// Report is the delta artifact written with -out.
type Report struct {
	Tolerance float64  `json:"tolerance"`
	Results   []Result `json:"results"`
	// Unmatched lists benchmarks whose median was measured but which have
	// no baseline key (new benchmarks, or baseline files not passed).
	Unmatched []string `json:"unmatched,omitempty"`
	Failed    bool     `json:"failed"`
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var baselines multiFlag
	flag.Var(&baselines, "baseline", "baseline JSON file (repeatable); the newest entries[] element is the reference")
	input := flag.String("input", "-", "go test -bench output to read ('-' = stdin)")
	tol := flag.Float64("tolerance", 0.20, "allowed slowdown fraction for gated benchmarks")
	gate := flag.String("gate", "BenchmarkRunnerStep,BenchmarkRunnerStepP2,BenchmarkRBK384P96", "comma-separated benchmark names that fail the run on regression")
	out := flag.String("out", "", "write the JSON delta report here (optional)")
	flag.Parse()

	rep, err := run(baselines, *input, *tol, *gate, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if rep.Failed {
		os.Exit(1)
	}
}

func run(baselines []string, input string, tol float64, gate, out string) (*Report, error) {
	var r io.Reader = os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	samples, err := parseBench(r)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	base, err := loadBaselines(baselines)
	if err != nil {
		return nil, err
	}
	gated := map[string]bool{}
	for _, g := range strings.Split(gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gated[g] = true
		}
	}

	rep := &Report{Tolerance: tol}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := Result{
			Benchmark: name,
			Key:       keyOf[name],
			Samples:   len(samples[name].ns),
			MedianNs:  median(samples[name].ns),
			Gated:     gated[name],
		}
		ref, ok := base[res.Key]
		if res.Key == "" || !ok {
			if res.Gated {
				return nil, fmt.Errorf("gated benchmark %s has no baseline: key %q is missing from keyOf or from the newest entry of every baseline file", name, res.Key)
			}
			rep.Unmatched = append(rep.Unmatched, name)
		} else {
			res.BaselineNs = ref
			res.Ratio = res.MedianNs / ref
			res.Regressed = res.Ratio > 1+tol
		}
		if res.Gated && res.Regressed {
			rep.Failed = true
		}
		bytesKey := strings.TrimSuffix(res.Key, "_ns_per_op") + "_bytes_per_op"
		if ref, ok := base[bytesKey]; ok && res.Key != "" && len(samples[name].bytes) > 0 {
			res.MedianBytes = median(samples[name].bytes)
			res.BaselineBytes = ref
			res.BytesRatio = res.MedianBytes / ref
			res.BytesGated = bytesGated[name]
			res.BytesMoved = res.BytesRatio > 1+bytesTolerance || res.BytesRatio < 1-bytesTolerance
		} else if bytesGated[name] {
			return nil, fmt.Errorf("%s is gated on B/op: run it with -benchmem against a baseline carrying %s", name, bytesKey)
		}
		if res.BytesGated && res.BytesMoved {
			rep.Failed = true
		}
		if ref, ok := base[strings.TrimSuffix(res.Key, "_ns_per_op")+"_allocs_per_op"]; ok && len(samples[name].allocs) > 0 {
			res.MedianAllocs, res.BaselineAllocs = median(samples[name].allocs), ref
		}
		rep.Results = append(rep.Results, res)
		printResult(res)
	}
	for name := range gated {
		if _, ok := samples[name]; !ok {
			return nil, fmt.Errorf("gated benchmark %s missing from input", name)
		}
	}

	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if rep.Failed {
		fmt.Printf("FAIL: gated benchmark(s) regressed more than %.0f%%, or gated B/op left baseline +/- %.0f%%\n", tol*100, bytesTolerance*100)
	} else {
		fmt.Printf("ok: no gated benchmark regressed more than %.0f%%\n", tol*100)
	}
	return rep, nil
}

func printResult(res Result) {
	status := "report-only"
	if res.Gated {
		status = "gated"
	}
	if res.BaselineNs == 0 {
		fmt.Printf("%-28s median %.0f ns/op (%d runs)  [no baseline]\n",
			res.Benchmark, res.MedianNs, res.Samples)
		return
	}
	fmt.Printf("%-28s median %.0f ns/op (%d runs)  baseline %.0f  ratio %.3f  [%s]\n",
		res.Benchmark, res.MedianNs, res.Samples, res.BaselineNs, res.Ratio, status)
	if res.BaselineBytes != 0 {
		verdict := "report-only"
		if res.BytesGated {
			where := "within"
			if res.BytesMoved {
				where = "OUTSIDE (refresh the baseline if it fell)"
			}
			verdict = fmt.Sprintf("gated: %s +/- %.0f%%", where, bytesTolerance*100)
		}
		fmt.Printf("%-28s median %.0f B/op  baseline %.0f  ratio %.4f  [%s]\n",
			"", res.MedianBytes, res.BaselineBytes, res.BytesRatio, verdict)
	}
	if res.BaselineAllocs != 0 {
		fmt.Printf("%-28s median %.0f allocs/op  baseline %.0f  [report-only]\n", "", res.MedianAllocs, res.BaselineAllocs)
	}
}

// benchLine matches e.g. "BenchmarkRunnerStep-4  30  8202355 ns/op" with
// any extra per-op columns after it, of which the -benchmem "N B/op" and
// "N allocs/op" are captured. A sub-benchmark name may carry hyphens of its
// own ("ServiceRequest/stream-hit/Ne64-2"): only a trailing -N goes.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// sample holds one benchmark's repetitions: ns/op always, B/op and allocs/op
// when the line carried them.
type sample struct{ ns, bytes, allocs []float64 }

// parseBench collects every ns/op (and B/op, allocs/op) sample per benchmark
// name (CPU suffix stripped) from go test -bench output.
func parseBench(r io.Reader) (map[string]sample, error) {
	samples := map[string]sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := samples[m[1]]
		for i, col := range []*[]float64{&s.ns, &s.bytes, &s.allocs} {
			if m[2+i] == "" {
				continue
			}
			v, err := strconv.ParseFloat(m[2+i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			*col = append(*col, v)
		}
		samples[m[1]] = s
	}
	return samples, sc.Err()
}

// loadBaselines merges the ns/op, B/op and allocs/op keys of the newest entry
// of every file.
func loadBaselines(files []string) (map[string]float64, error) {
	base := map[string]float64{}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var doc struct {
			Entries []map[string]any `json:"entries"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		if len(doc.Entries) == 0 {
			return nil, fmt.Errorf("%s: no entries", file)
		}
		latest := doc.Entries[len(doc.Entries)-1]
		for k, v := range latest {
			if f, ok := v.(float64); ok && (strings.HasSuffix(k, "_ns_per_op") || strings.HasSuffix(k, "_bytes_per_op") || strings.HasSuffix(k, "_allocs_per_op")) {
				base[k] = f
			}
		}
	}
	return base, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
