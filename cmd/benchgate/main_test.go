package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: sfccube
BenchmarkRunnerStep-4   	      30	   8300000 ns/op
BenchmarkRunnerStep-4   	      30	   8100000 ns/op
BenchmarkRunnerStep-4   	      30	   8200000 ns/op
BenchmarkRBK384P96-4    	      10	   2600000 ns/op
BenchmarkKWayK384P96-4  	      10	   3500000 ns/op
BenchmarkNewThing-4     	     100	     12345 ns/op
PASS
`

const sampleBaseline = `{
  "entries": [
    {"date": "old", "runner_step_ns_per_op": 999},
    {"date": "new", "runner_step_ns_per_op": 8202355,
     "rb_k384_p96_ns_per_op": 2520547, "kway_k384_p96_ns_per_op": 3446416,
     "notes": "strings are ignored"}
  ]
}`

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParseBench: medians per benchmark, CPU suffix stripped, non-bench
// lines skipped.
func TestParseBench(t *testing.T) {
	samples, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(samples["BenchmarkRunnerStep"].ns); got != 3 {
		t.Fatalf("RunnerStep samples = %d, want 3", got)
	}
	if m := median(samples["BenchmarkRunnerStep"].ns); m != 8200000 {
		t.Fatalf("median = %v, want 8200000", m)
	}
	// A sub-benchmark name with a hyphen of its own, and extra columns.
	const hyphenated = "BenchmarkServiceRequest/stream-hit/Ne64-4 \t 100\t 2696 ns/op\t26874.76 MB/s\t 992 B/op\t 21 allocs/op\n"
	if samples, err = parseBench(strings.NewReader(hyphenated)); err != nil {
		t.Fatal(err)
	}
	got := samples["BenchmarkServiceRequest/stream-hit/Ne64"]
	if len(got.ns) != 1 || got.ns[0] != 2696 || len(got.bytes) != 1 || got.bytes[0] != 992 || len(got.allocs) != 1 || got.allocs[0] != 21 {
		t.Fatalf("hyphenated sub-benchmark parsed as %v, want 2696 ns/op, 992 B/op and 21 allocs/op", got)
	}
}

// TestGatePasses: within tolerance, gated benchmarks pass and the report
// carries ratios against the NEWEST baseline entry.
func TestGatePasses(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", sampleBench)
	bl := write(t, dir, "base.json", sampleBaseline)
	out := filepath.Join(dir, "delta.json")
	rep, err := run([]string{bl}, in, 0.20, "BenchmarkRunnerStep,BenchmarkRBK384P96", out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("report failed unexpectedly: %+v", rep)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("delta artifact missing: %v", err)
	}
	var found bool
	for _, r := range rep.Results {
		if r.Benchmark == "BenchmarkRunnerStep" {
			found = true
			if !r.Gated || r.BaselineNs != 8202355 || r.Regressed {
				t.Fatalf("RunnerStep result wrong: %+v", r)
			}
		}
		if r.Benchmark == "BenchmarkNewThing" && (r.Gated || r.BaselineNs != 0) {
			t.Fatalf("unmatched benchmark mishandled: %+v", r)
		}
	}
	if !found {
		t.Fatal("RunnerStep missing from report")
	}
	if len(rep.Unmatched) != 1 || rep.Unmatched[0] != "BenchmarkNewThing" {
		t.Fatalf("unmatched = %v", rep.Unmatched)
	}
}

// TestGateFailsOnRegression: a gated benchmark 21% over baseline fails;
// an ungated one at the same ratio does not.
func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	slow := "BenchmarkRunnerStep-4 30 9922850 ns/op\nBenchmarkKWayK384P96-4 10 9000000 ns/op\n"
	in := write(t, dir, "bench.txt", slow)
	bl := write(t, dir, "base.json", sampleBaseline)
	rep, err := run([]string{bl}, in, 0.20, "BenchmarkRunnerStep", "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("21% regression of a gated benchmark must fail")
	}
	rep, err = run([]string{bl}, in, 0.20, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("with no gated benchmarks the same input must pass")
	}
}

// TestGateMissingGatedBenchmark: silence is not a pass — a gated
// benchmark absent from the input is an error.
func TestGateMissingGatedBenchmark(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", "BenchmarkRBK384P96-4 10 2600000 ns/op\n")
	bl := write(t, dir, "base.json", sampleBaseline)
	if _, err := run([]string{bl}, in, 0.20, "BenchmarkRunnerStep", ""); err == nil {
		t.Fatal("missing gated benchmark must be an error")
	}
}

// TestGateUnmatchedGatedBenchmark: nor is a gated benchmark that has no
// baseline to be gated against — an error, not a report-only line.
func TestGateUnmatchedGatedBenchmark(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", sampleBench)
	bl := write(t, dir, "base.json", sampleBaseline)
	for _, gate := range []string{"BenchmarkNewThing", "BenchmarkRunnerStep,BenchmarkNewThing"} {
		if _, err := run([]string{bl}, in, 0.20, gate, ""); err == nil {
			t.Errorf("-gate %s: a gated benchmark with no baseline key must be an error", gate)
		}
	}
	if _, err := run(nil, in, 0.20, "BenchmarkRunnerStep", ""); err == nil {
		t.Error("a gated benchmark with no baseline file passed must be an error")
	}
}

// TestBytesGate: a bytes-gated benchmark fails the run when its B/op leaves
// the baseline by more than 2 % in either direction whatever its time did,
// passes inside it, is an error without the -benchmem column, and B/op of a
// benchmark outside bytesGated is reported, never gated — as allocs/op is for
// any benchmark whose baseline carries it.
func TestBytesGate(t *testing.T) {
	dir := t.TempDir()
	bl := write(t, dir, "base.json", `{"entries": [{
	  "sfc_parallel_ne384_ns_per_op": 5000000, "sfc_parallel_ne384_bytes_per_op": 10617523,
	  "rb_k384_p96_ns_per_op": 2520547, "rb_k384_p96_bytes_per_op": 395904, "rb_k384_p96_allocs_per_op": 1739}]}`)
	line := func(name string, ns, bytes int) string {
		return name + "-2 \t 10\t " + strconv.Itoa(ns) + " ns/op\t " + strconv.Itoa(bytes) + " B/op\t 11 allocs/op\n"
	}
	for _, c := range []struct {
		name   string
		input  string
		failed bool
	}{
		{"inside", line("BenchmarkSFCParallelNe384", 5100000, 10618036), false},
		{"table back", line("BenchmarkSFCParallelNe384", 4000000, 14156467), true},
		{"stale baseline", line("BenchmarkSFCParallelNe384", 5000000, 9000000), true},
		{"not bytes-gated", line("BenchmarkRBK384P96", 2500000, 900000), false},
	} {
		rep, err := run([]string{bl}, write(t, dir, "bench.txt", c.input), 0.20, "", "")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Failed != c.failed {
			t.Errorf("%s: failed = %v, want %v (%+v)", c.name, rep.Failed, c.failed, rep.Results)
		}
		r := rep.Results[0]
		if r.MedianBytes == 0 || r.BaselineBytes == 0 {
			t.Errorf("%s: B/op not reported: %+v", c.name, r)
		}
		if rb := r.Benchmark == "BenchmarkRBK384P96"; rb != (r.MedianAllocs == 11 && r.BaselineAllocs == 1739) {
			t.Errorf("%s: allocs/op reported as %v against %v", c.name, r.MedianAllocs, r.BaselineAllocs)
		}
	}
	in := write(t, dir, "nomem.txt", "BenchmarkSFCParallelNe384-2 10 5000000 ns/op\n")
	if _, err := run([]string{bl}, in, 0.20, "", ""); err == nil {
		t.Error("a bytes-gated benchmark without a B/op column must be an error")
	}
}
