// Command benchgate compares `go test -bench` output against the baselines
// recorded in the BENCH_*.json ledgers named on its command line.
//
// It reads the output (any number of -count repetitions) from stdin or -input
// and takes the median ns/op, B/op and allocs/op per benchmark. Each ledger
// contributes the `benchmarks` object of its newest entry: records keyed by
// the name go test prints, each with ns_per_op, optionally bytes_per_op and
// allocs_per_op, and a `gate` list. Gated on "time", a benchmark fails the run
// (exit 1) when slower than baseline*(1+timeTolerance); gated on "bytes", when
// its B/op leaves baseline*(1 +/- bytesTolerance) either way (allocation
// sizes repeat where times do not; a fall means the baseline is stale).
// Everything else is report-only, so the noisy long tail cannot block a
// merge, and gating or adding a benchmark is a ledger edit. TESTING.md
// ("Benchmark gate") has the schema and the refresh policy.
//
//	benchgate [-input bench.txt] [-out delta.json] [-report-only] BENCH_*.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

const (
	timeTolerance  = 0.20
	bytesTolerance = 0.02
)

// baseline is one benchmark's record in a ledger entry's `benchmarks` object.
// A zero bytes_per_op or allocs_per_op is no baseline for that column.
type baseline struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  float64  `json:"bytes_per_op"`
	AllocsPerOp float64  `json:"allocs_per_op"`
	Gate        []string `json:"gate"`
}

func (b baseline) gated(on string) bool { return slices.Contains(b.Gate, on) }

// check rejects a record a gate would compare against nothing.
func (b baseline) check() error {
	for _, g := range b.Gate {
		if g != "time" && g != "bytes" {
			return fmt.Errorf("unknown gate %q (want \"time\" or \"bytes\")", g)
		}
	}
	if b.NsPerOp <= 0 || b.gated("bytes") && b.BytesPerOp <= 0 {
		return errors.New("no ns_per_op, or gated on bytes without a bytes_per_op")
	}
	return nil
}

// Result is one benchmark's comparison in the delta artifact.
type Result struct {
	Benchmark  string  `json:"benchmark"`
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
	// Unmatched lists the measured benchmarks no ledger names.
	Unmatched []string `json:"unmatched,omitempty"`
	Failed    bool     `json:"failed"`
}

func main() {
	input := flag.String("input", "-", "go test -bench output to read ('-' = stdin)")
	out := flag.String("out", "", "write the JSON delta report here (optional)")
	reportOnly := flag.Bool("report-only", false, "compare and report, but gate nothing")
	flag.Parse()

	rep, err := run(flag.Args(), *input, *out, *reportOnly)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if rep.Failed {
		os.Exit(1)
	}
}

func run(ledgers []string, input, out string, reportOnly bool) (*Report, error) {
	r := os.Stdin
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
	base, err := loadLedgers(ledgers, reportOnly)
	if err != nil {
		return nil, err
	}

	rep := &Report{Tolerance: timeTolerance}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := samples[name]
		res := Result{Benchmark: name, Samples: len(s.ns), MedianNs: median(s.ns)}
		ref, ok := base[name]
		if !ok {
			rep.Unmatched = append(rep.Unmatched, name)
		} else {
			res.Gated = ref.gated("time")
			res.BaselineNs, res.Ratio = ref.NsPerOp, res.MedianNs/ref.NsPerOp
			res.Regressed = res.Ratio > 1+timeTolerance
		}
		if ref.BytesPerOp != 0 && len(s.bytes) > 0 {
			res.MedianBytes, res.BaselineBytes = median(s.bytes), ref.BytesPerOp
			res.BytesRatio = res.MedianBytes / ref.BytesPerOp
			res.BytesGated = ref.gated("bytes")
			res.BytesMoved = res.BytesRatio > 1+bytesTolerance || res.BytesRatio < 1-bytesTolerance
		} else if ref.gated("bytes") {
			return nil, fmt.Errorf("%s is gated on B/op: run it with -benchmem", name)
		}
		if ref.AllocsPerOp != 0 && len(s.allocs) > 0 {
			res.MedianAllocs, res.BaselineAllocs = median(s.allocs), ref.AllocsPerOp
		}
		rep.Failed = rep.Failed || res.Gated && res.Regressed || res.BytesGated && res.BytesMoved
		rep.Results = append(rep.Results, res)
		printResult(res)
	}
	for name, ref := range base {
		if _, ok := samples[name]; !ok && len(ref.Gate) > 0 {
			return nil, fmt.Errorf("gated benchmark %s missing from input", name)
		}
	}

	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	if rep.Failed {
		fmt.Printf("FAIL: gated benchmark(s) regressed more than %.0f%%, or gated B/op left baseline +/- %.0f%%\n", timeTolerance*100, bytesTolerance*100)
	} else {
		fmt.Printf("ok: no gated benchmark regressed more than %.0f%%\n", timeTolerance*100)
	}
	return rep, nil
}

func printResult(res Result) {
	head := fmt.Sprintf("%-28s median %.0f ns/op (%d runs)", res.Benchmark, res.MedianNs, res.Samples)
	if res.BaselineNs == 0 {
		fmt.Println(head + "  [no baseline]")
		return
	}
	status := "report-only"
	if res.Gated {
		status = "gated"
	}
	fmt.Printf("%s  baseline %.0f  ratio %.3f  [%s]\n", head, res.BaselineNs, res.Ratio, status)
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

// loadLedgers merges the `benchmarks` of the newest entry of every file,
// without their gates if reportOnly. A benchmark named by two files is an
// error: which baseline it is gated against must not depend on the order of
// the arguments.
func loadLedgers(files []string, reportOnly bool) (map[string]baseline, error) {
	if len(files) == 0 {
		return nil, errors.New("no ledger files given (usage: benchgate [flags] BENCH_*.json)")
	}
	base := map[string]baseline{}
	from := map[string]string{}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var doc struct {
			Entries []struct {
				Benchmarks map[string]baseline `json:"benchmarks"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		n := len(doc.Entries)
		if n == 0 || len(doc.Entries[n-1].Benchmarks) == 0 {
			return nil, fmt.Errorf("%s: the newest entry has no benchmarks", file)
		}
		for name, ref := range doc.Entries[n-1].Benchmarks {
			if other, dup := from[name]; dup {
				return nil, fmt.Errorf("%s: %s is also in the newest entry of %s", file, name, other)
			}
			if err := ref.check(); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", file, name, err)
			}
			if reportOnly {
				ref.Gate = nil
			}
			base[name], from[name] = ref, file
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
