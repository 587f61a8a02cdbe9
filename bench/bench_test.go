package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"sfccube/internal/service"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 0.15, trace: trace, setupReps: 1, outDir: t.TempDir()}
}

// TestNamesMatchBenchmarkJSON runs all four workloads and their traced
// replays at 1/100 scale and asserts that the workload and metric names the
// code emits are exactly the ones BENCHMARK.json declares, in both
// directions, so the file and the code cannot drift apart.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec := testSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", declared, workloadNames)
	}
	sets := map[bool]map[string]bool{false: {}, true: {}}
	for trace, list := range map[bool][]metricSpec{false: spec.EndToEnd, true: spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, nameRE)
			}
			if sets[trace][m.Name] || sets[!trace][m.Name] {
				t.Errorf("metric name %q is declared twice", m.Name)
			}
			sets[trace][m.Name] = true
		}
	}
	if testing.Short() {
		t.Skip("-short: the workloads are not run")
	}

	for _, trace := range []bool{false, true} {
		emitted := map[string]bool{}
		for _, w := range workloadNames {
			res, err := runWorkload(smokeConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", w, trace, res.Failed, res.Attempted, res.FirstErr)
			}
			for name := range res.Metrics {
				emitted[name] = true
				if !sets[trace][name] {
					t.Errorf("%s trace=%v emits %s, which BENCHMARK.json does not declare", w, trace, name)
				}
			}
			if !trace {
				// Every workload reports every end-to-end metric, none of them 0.
				for name := range sets[false] {
					if res.Metrics[name] == 0 {
						t.Errorf("%s: end-to-end metric %s is missing or 0", w, name)
					}
				}
			}
			if err := conform(res, spec); err != nil {
				t.Error(err)
			}
			var line bytes.Buffer
			if err := res.printContractLine(&line, spec); err != nil {
				t.Fatal(err)
			}
			var contract struct {
				Correct   *bool                     `json:"correct"`
				Attempted int                       `json:"attempted"`
				Failed    *int                      `json:"failed"`
				Metrics   map[string]map[string]any `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &contract); err != nil || contract.Correct == nil || contract.Failed == nil ||
				contract.Attempted < 1 || len(contract.Metrics) != len(sets[trace]) {
				t.Errorf("%s trace=%v: malformed contract line (%v): %s", w, trace, err, line.String())
			}
		}
		for name := range sets[trace] {
			if !emitted[name] {
				t.Errorf("BENCHMARK.json declares %s (trace=%v), which no workload emits", name, trace)
			}
		}
	}
}

// TestTraceFileIsWritten checks the traced run leaves its spans behind and
// that every span names its op and its parent.
func TestTraceFileIsWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	cfg := smokeConfig(t, wlMissSFC, true)
	if _, err := runWorkload(cfg); err != nil {
		t.Fatal(err)
	}
	var spans []span
	b, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+wlMissSFC+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{0: true}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		spans = append(spans, s)
		ids[s.Span] = true
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if !ids[s.Parent] || s.EndNs < s.StartNs {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, want := range []string{"http.op", "service.partition.miss", "service.partition.hit", "replay.op",
		"mesh.build", "graph.build", "resilience.chain", "sfc.curve", "partition.cut", "partition.stats", "service.encode"} {
		if !names[want] {
			t.Errorf("no %s span in the trace", want)
		}
	}
}

// TestVerificationCatchesCorruptAssignment corrupts one sampled assignment
// and expects the verifier to refuse it, the run to count a failed op and the
// command to exit non-zero.
func TestVerificationCatchesCorruptAssignment(t *testing.T) {
	w, in, warm, err := setUp(wlMissSFC, 1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	defer in.stop()
	if warm.failed > 0 {
		t.Fatal(warm.firstErr)
	}
	timed := w.seq[w.warmup : w.warmup+3]
	out := in.drive(w.requests, timed, driveOpts{keep: func(int) bool { return true }})
	if out.failed > 0 || len(out.samples) != 3 {
		t.Fatalf("drive: %d failed, %d samples: %v", out.failed, len(out.samples), out.firstErr)
	}
	v := newVerifier()
	if _, errs := v.checkSamples(w, timed, out.samples); len(errs) != 0 {
		t.Fatalf("clean samples refused: %v", errs)
	}

	var resp service.Response
	if err := json.Unmarshal(out.samples[1].body, &resp); err != nil {
		t.Fatal(err)
	}
	// Move one element to another part: still a well-formed partition, but no
	// longer the one the response's stats describe.
	resp.Assignment[0] = (resp.Assignment[0] + 1) % int32(resp.NParts)
	if out.samples[1].body, err = json.Marshal(resp); err != nil {
		t.Fatal(err)
	}
	_, errs := v.checkSamples(w, timed, out.samples)
	if len(errs) != 1 {
		t.Fatalf("corrupt sample: %d verification errors, want 1: %v", len(errs), errs)
	}
	res := newResult(runConfig{workload: wlMissSFC})
	res.count(out.attempted, len(errs), errs[0])
	if res.correct() || exitCode(res) == 0 {
		t.Errorf("a failed verification must make the run incorrect and the exit code non-zero")
	}
}

// TestWorkloadsAreAFunctionOfTheSeed: same seed, same requests; another
// seed, other requests; and the miss workloads never repeat a cache key.
func TestWorkloadsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{wlMissSFC, wlMissMetis, wlHot} {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 2)
		c, _ := generate(name, 8, 2)
		bodies := func(w *svcWorkload) string {
			var sb strings.Builder
			for _, ref := range w.seq {
				sb.Write(w.requests[ref.req].body)
				if ref.stream {
					sb.WriteByte('s')
				}
			}
			return sb.String()
		}
		if bodies(a) != bodies(b) {
			t.Errorf("%s: the same seed gave two different sequences", name)
		}
		if bodies(a) == bodies(c) {
			t.Errorf("%s: two seeds gave the same sequence", name)
		}
		if name == wlHot {
			continue
		}
		seen := map[string]bool{}
		for _, rq := range a.requests {
			if seen[string(rq.body)] {
				t.Fatalf("%s: request repeated: %s", name, rq.body)
			}
			seen[string(rq.body)] = true
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	mk := func(scale float64, noisy bool) string {
		var f resultFile
		for _, w := range spec.Workloads {
			r := &result{Workload: w.Name, Attempted: 10, Noisy: noisy, Metrics: map[string]float64{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = 100
			}
			r.Metrics["op_p50_ms"] = 100 * scale
			f.Runs = append(f.Runs, r)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, false)
	for _, tc := range []struct {
		b       string
		code    int
		verdict string
	}{
		{mk(1.05, false), 0, "ok"},
		{mk(0.5, false), 0, "ok"},
		{mk(1.5, false), 1, "worse"},
		{mk(1.5, true), 0, "noisy"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, spec, base, tc.b); code != tc.code {
			t.Errorf("exit code %d, want %d:\n%s", code, tc.code, out.String())
		}
		var verdicts []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "op_p50_ms") {
				f := strings.Fields(line)
				verdicts = append(verdicts, f[len(f)-1])
			}
		}
		sort.Strings(verdicts)
		if len(verdicts) != len(spec.Workloads) || verdicts[0] != tc.verdict || verdicts[len(verdicts)-1] != tc.verdict {
			t.Errorf("verdicts %v, want all %q:\n%s", verdicts, tc.verdict, out.String())
		}
	}
}
