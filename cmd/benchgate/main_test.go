package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
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
    {"date": "old", "benchmarks": {"BenchmarkRunnerStep": {"ns_per_op": 999, "gate": ["time"]}}},
    {"date": "new", "benchmarks": {
       "BenchmarkRunnerStep": {"ns_per_op": 8202355, "gate": ["time"]},
       "BenchmarkRBK384P96": {"ns_per_op": 2520547, "gate": ["time"]},
       "BenchmarkKWayK384P96": {"ns_per_op": 3446416}},
     "runner_step_ns_per_op": 1,
     "notes": "fields outside benchmarks are ignored"}
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

// ledger renders a one-entry ledger whose newest entry holds benchmarks.
func ledger(t *testing.T, benchmarks map[string]baseline) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"entries": []any{map[string]any{"benchmarks": benchmarks}}})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
// carries ratios against the NEWEST ledger entry.
func TestGatePasses(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", sampleBench)
	bl := write(t, dir, "base.json", sampleBaseline)
	out := filepath.Join(dir, "delta.json")
	rep, err := run([]string{bl}, in, out, false)
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
		if r.Benchmark == "BenchmarkKWayK384P96" && (r.Gated || r.BaselineNs != 3446416) {
			t.Fatalf("report-only benchmark mishandled: %+v", r)
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
// an ungated one far past it does not, and -report-only gates nothing.
func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	slow := "BenchmarkRunnerStep-4 30 9922850 ns/op\nBenchmarkRBK384P96-4 10 2600000 ns/op\nBenchmarkKWayK384P96-4 10 9000000 ns/op\n"
	in := write(t, dir, "bench.txt", slow)
	bl := write(t, dir, "base.json", sampleBaseline)
	rep, err := run([]string{bl}, in, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Fatal("21% regression of a gated benchmark must fail")
	}
	rep, err = run([]string{bl}, in, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal("with no gated benchmarks the same input must pass")
	}
	// Report-only also lifts the missing-from-input check: one benchmark can
	// be recorded against a ledger that gates others.
	in = write(t, dir, "one.txt", "BenchmarkKWayK384P96-4 10 9000000 ns/op\n")
	if rep, err = run([]string{bl}, in, "", true); err != nil || rep.Results[0].BaselineNs != 3446416 {
		t.Fatalf("report-only run of one benchmark: %v, %+v", err, rep)
	}
}

// TestGateMissingGatedBenchmark: silence is not a pass — a gated
// benchmark absent from the input is an error.
func TestGateMissingGatedBenchmark(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", "BenchmarkRBK384P96-4 10 2600000 ns/op\n")
	bl := write(t, dir, "base.json", sampleBaseline)
	if _, err := run([]string{bl}, in, "", false); err == nil {
		t.Fatal("missing gated benchmark must be an error")
	}
}

// TestGateUnmatchedGatedBenchmark: nor is a gate with no baseline to be
// gated against — a ledger record that would gate on nothing, a ledger whose
// newest entry names no benchmarks, and no ledger at all are errors, not
// report-only lines.
func TestGateUnmatchedGatedBenchmark(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", sampleBench)
	for name, ref := range map[string]baseline{
		"time gate without ns_per_op":   {Gate: []string{"time"}},
		"bytes gate without B/op":       {NsPerOp: 100, Gate: []string{"bytes"}},
		"gate that is no gate":          {NsPerOp: 100, Gate: []string{"speed"}},
		"report-only without ns_per_op": {BytesPerOp: 100},
	} {
		bl := write(t, dir, "base.json", ledger(t, map[string]baseline{"BenchmarkNewThing": ref}))
		if _, err := run([]string{bl}, in, "", false); err == nil {
			t.Errorf("%s: must be an error", name)
		}
	}
	old := write(t, dir, "old.json", `{"entries": [{"runner_step_ns_per_op": 8202355}]}`)
	if _, err := run([]string{old}, in, "", false); err == nil {
		t.Error("a ledger whose newest entry has no benchmarks object must be an error")
	}
	if _, err := run(nil, in, "", false); err == nil {
		t.Error("no ledger file passed must be an error")
	}
}

// TestDuplicateBenchmarkAcrossLedgers: a benchmark named in the newest entry
// of two ledgers is a load error, whichever order they come in, rather than
// the last file read deciding its baseline. A name only in an older entry of
// one of them does not count.
func TestDuplicateBenchmarkAcrossLedgers(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "bench.txt", "BenchmarkCubeCurveNe16-2 100 17000 ns/op\n")
	a := write(t, dir, "a.json", ledger(t, map[string]baseline{"BenchmarkCubeCurveNe16": {NsPerOp: 17621}}))
	b := write(t, dir, "b.json", ledger(t, map[string]baseline{"BenchmarkCubeCurveNe16": {NsPerOp: 9000}}))
	for _, files := range [][]string{{a, b}, {b, a}} {
		if _, err := run(files, in, "", false); err == nil || !strings.Contains(err.Error(), "BenchmarkCubeCurveNe16") {
			t.Errorf("ledgers %v: err = %v, want the duplicate named", files, err)
		}
	}
	history := write(t, dir, "c.json", `{"entries": [
	  {"benchmarks": {"BenchmarkCubeCurveNe16": {"ns_per_op": 9000}}},
	  {"benchmarks": {"BenchmarkOther": {"ns_per_op": 1}}}]}`)
	rep, err := run([]string{a, history}, in, "", false)
	if err != nil || rep.Results[0].BaselineNs != 17621 {
		t.Fatalf("a name only in an older entry must not clash: %v, %+v", err, rep)
	}
}

// TestBytesGate: a bytes-gated benchmark fails the run when its B/op leaves
// the baseline by more than 2 % in either direction whatever its time did,
// passes inside it, is an error without the -benchmem column, and B/op of a
// benchmark not gated on bytes is reported, never gated — as allocs/op is
// for any benchmark whose baseline carries it.
func TestBytesGate(t *testing.T) {
	dir := t.TempDir()
	bl := write(t, dir, "base.json", ledger(t, map[string]baseline{
		"BenchmarkSFCParallelNe384": {NsPerOp: 5000000, BytesPerOp: 10617523, Gate: []string{"bytes"}},
		"BenchmarkRBK384P96":        {NsPerOp: 2520547, BytesPerOp: 395904, AllocsPerOp: 1739},
	}))
	line := func(name string, ns, bytes int) string {
		return name + "-2 \t 10\t " + strconv.Itoa(ns) + " ns/op\t " + strconv.Itoa(bytes) + " B/op\t 11 allocs/op\n"
	}
	inside := line("BenchmarkSFCParallelNe384", 5100000, 10618036)
	for _, c := range []struct {
		name   string
		input  string
		failed bool
	}{
		{"inside", inside, false},
		{"table back", line("BenchmarkSFCParallelNe384", 4000000, 14156467), true},
		{"stale baseline", line("BenchmarkSFCParallelNe384", 5000000, 9000000), true},
		{"not bytes-gated", inside + line("BenchmarkRBK384P96", 2500000, 900000), false},
	} {
		rep, err := run([]string{bl}, write(t, dir, "bench.txt", c.input), "", false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Failed != c.failed {
			t.Errorf("%s: failed = %v, want %v (%+v)", c.name, rep.Failed, c.failed, rep.Results)
		}
		for _, r := range rep.Results {
			if r.MedianBytes == 0 || r.BaselineBytes == 0 {
				t.Errorf("%s: B/op not reported: %+v", c.name, r)
			}
			rb := r.Benchmark == "BenchmarkRBK384P96"
			if rb != (r.MedianAllocs == 11 && r.BaselineAllocs == 1739) || rb == r.BytesGated {
				t.Errorf("%s: %s allocs/op reported as %v against %v, bytes gated %v", c.name, r.Benchmark, r.MedianAllocs, r.BaselineAllocs, r.BytesGated)
			}
		}
	}
	in := write(t, dir, "nomem.txt", "BenchmarkSFCParallelNe384-2 10 5000000 ns/op\n")
	if _, err := run([]string{bl}, in, "", false); err == nil {
		t.Error("a bytes-gated benchmark without a B/op column must be an error")
	}
}

// TestLedgerBenchmarkNeedsNoGoEdit: a benchmark this package has never heard
// of, added to a ledger with a gate, is compared and gated.
func TestLedgerBenchmarkNeedsNoGoEdit(t *testing.T) {
	dir := t.TempDir()
	const name = "BenchmarkAddedLater/sub-case/Ne4"
	bl := write(t, dir, "base.json", ledger(t, map[string]baseline{
		name: {NsPerOp: 1000, BytesPerOp: 64, Gate: []string{"time", "bytes"}},
	}))
	for _, c := range []struct {
		input  string
		failed bool
	}{
		{name + "-2 100 1100 ns/op 64 B/op 1 allocs/op\n", false},
		{name + "-2 100 1300 ns/op 64 B/op 1 allocs/op\n", true},
		{name + "-2 100 1000 ns/op 80 B/op 1 allocs/op\n", true},
	} {
		rep, err := run([]string{bl}, write(t, dir, "bench.txt", c.input), "", false)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0]
		if !r.Gated || !r.BytesGated || r.BaselineNs != 1000 || r.BaselineBytes != 64 || rep.Failed != c.failed {
			t.Errorf("%q: failed = %v, want %v (%+v)", c.input, rep.Failed, c.failed, r)
		}
	}
}

// committedLedgers loads the repository's BENCH_*.json the way the CI
// bench-gate job passes them.
func committedLedgers(t *testing.T) map[string]baseline {
	t.Helper()
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) != 3 {
		t.Fatalf("ledgers %v (%v), want BENCH_{metis,seam,service}.json", files, err)
	}
	base, err := loadLedgers(files, false)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestCommittedGates: the committed ledgers gate time on exactly the eleven
// benchmarks CI gates and bytes on exactly two, each against a
// baseline it carries. Changing either set is a deliberate edit of this test.
func TestCommittedGates(t *testing.T) {
	wantTime := []string{
		"BenchmarkKWayK13824P768",
		"BenchmarkProblemStats/view/Ne128",
		"BenchmarkProblemStats/view/Ne32",
		"BenchmarkRBK384P96",
		"BenchmarkRunnerStep",
		"BenchmarkRunnerStepP1",
		"BenchmarkRunnerStepP2",
		"BenchmarkRunnerStepP4",
		"BenchmarkSFCParallelNe384",
		"BenchmarkServiceMiss/sfc/Ne128",
		"BenchmarkWeightedSFCNe384",
	}
	wantBytes := []string{
		"BenchmarkSFCParallelNe384",
		"BenchmarkServiceMiss/sfc/Ne128",
		"BenchmarkServiceRequest/hit-reg/Ne64",
		"BenchmarkServiceRequest/stream-hit-reg/Ne64",
		"BenchmarkServiceRequest/stream-hit/Ne64",
	}
	var gotTime, gotBytes []string
	for name, ref := range committedLedgers(t) {
		if ref.gated("time") {
			gotTime = append(gotTime, name)
			if ref.NsPerOp <= 0 {
				t.Errorf("%s is gated on time without ns_per_op", name)
			}
		}
		if ref.gated("bytes") {
			gotBytes = append(gotBytes, name)
			if ref.BytesPerOp <= 0 {
				t.Errorf("%s is gated on bytes without bytes_per_op", name)
			}
		}
	}
	sort.Strings(gotTime)
	sort.Strings(gotBytes)
	if !slices.Equal(gotTime, wantTime) {
		t.Errorf("time-gated = %v, want %v", gotTime, wantTime)
	}
	if !slices.Equal(gotBytes, wantBytes) {
		t.Errorf("bytes-gated = %v, want %v", gotBytes, wantBytes)
	}
	if timeTolerance != 0.20 || bytesTolerance != 0.02 {
		t.Errorf("tolerances %v / %v, want 0.20 / 0.02", timeTolerance, bytesTolerance)
	}
}

// TestCommittedNamesResolve: every benchmark the committed ledgers name is a
// func Benchmark<Top> in a *_test.go of this module (bench/ is a module of
// its own), so a typo in a ledger fails here instead of never being compared.
func TestCommittedNamesResolve(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	funcs := map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "../.." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	base := committedLedgers(t)
	for name := range base {
		if top, _, _ := strings.Cut(name, "/"); !funcs[top] {
			t.Errorf("ledger names %s, but no *_test.go declares func %s", name, top)
		}
	}
	if len(base) < 60 || len(funcs) < 50 {
		t.Fatalf("%d ledger names against %d benchmark funcs: the walk or the ledgers are not what they should be", len(base), len(funcs))
	}
}
