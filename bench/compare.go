package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every (end-to-end metric, workload) pair, the
// value in result file a (the base) and in b, their ratio, the bound from
// BENCHMARK.json and a verdict: ok, worse (b is beyond the bound on the wrong
// side) or noisy (beyond the bound, but one of the two runs was flagged by
// the host canary, so the pair is unresolved). It returns 1 when any pair is
// worse or b has failed operations.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return fail(err)
	}
	if err := readJSON(pathB, &b); err != nil {
		return fail(err)
	}
	untraced := func(f *resultFile, workload string) *result {
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				return r
			}
		}
		return nil
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := untraced(&a, wl.Name), untraced(&b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-16s missing from one of the files\n", wl.Name)
			code = 1
			continue
		}
		if rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s %d of %d operations failed in b: %s\n", wl.Name, rb.Failed, rb.Attempted, rb.FirstErr)
			code = 1
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			verdict := "ok"
			if beyond(m, va, vb) {
				verdict = "worse"
				if ra.Noisy || rb.Noisy {
					verdict = "noisy"
				} else {
					code = 1
				}
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %9.4f %6.1f%%  %s\n", wl.Name, m.Name, va, vb, vb/va, 100*m.Bound, verdict)
		}
	}
	return code
}

// beyond reports whether vb is worse than the base va by more than the
// metric's bound.
func beyond(m metricSpec, va, vb float64) bool {
	if m.Better == "higher" {
		return vb < va*(1-m.Bound)
	}
	return vb > va*(1+m.Bound)
}
