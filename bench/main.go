// Command bench is the repository benchmark: two user journeys — a partsrv
// request from socket to last response byte, and a seam.Runner step from
// launch to the last rank's commit — over four workloads, with the end-to-end
// metrics and the per-layer ledger BENCHMARK.json declares. See README.md.
//
//	bash bench/run.sh                                  all workloads, untraced + traced
//	bash bench/run.sh --workload svc-hot --trace 1     one run
//	bash bench/run.sh --compare a.json b.json          two result files against the bounds
//
// Layers are measured from outside, by timing calls into their public
// functions; nothing outside bench/ knows the benchmark exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run in this process (empty: all four, each in a child process, untraced then traced)")
	seed := flag.Uint64("seed", 1, "workload seed: the op sequence is a pure function of it")
	seconds := flag.Float64("seconds", 0, "length of the timed window (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, bench/out/trace-<workload>.jsonl); 0: the untraced run (end-to-end metrics)")
	out := flag.String("out", "", "write the result(s) as JSON to this file (default for all workloads: bench/out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files: bench --compare a.json b.json")
	flag.Parse()

	root, err := findRepoRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("--compare takes two result files"))
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(outDir, "result.json")
		}
		return runAll(root, spec, *seed, *seconds, outDir, *out)
	}

	// Load shape: GOMAXPROCS = nproc, one client per core.
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := runWorkload(runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		setupReps: 3, outDir: outDir})
	if err == nil {
		err = conform(res, spec)
	}
	if err != nil {
		return fail(err)
	}
	res.printText(os.Stdout, spec)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return fail(err)
		}
	}
	if err := res.printContractLine(os.Stdout, spec); err != nil {
		return fail(err)
	}
	return exitCode(res)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*result, error) {
	switch {
	case !slices.Contains(workloadNames, cfg.workload):
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	case cfg.workload == wlSeamStep && cfg.trace:
		return runSeamTraced(cfg)
	case cfg.workload == wlSeamStep:
		return runSeam(cfg)
	case cfg.trace:
		return runSvcTraced(cfg)
	default:
		return runSvc(cfg)
	}
}

// conform checks that a run reported only metrics BENCHMARK.json declares
// for that kind of run, and every end-to-end one. A traced run reports the
// layers its journey passes through; the other declared layers read 0.
func conform(res *result, spec *benchSpec) error {
	declared := spec.EndToEnd
	if res.Trace {
		declared = spec.PerLayer
	}
	names := make(map[string]bool, len(declared))
	for _, m := range declared {
		names[m.Name] = true
		if _, ok := res.Metrics[m.Name]; !ok {
			if !res.Trace {
				return fmt.Errorf("%s reported no %s", res.Workload, m.Name)
			}
			res.Metrics[m.Name] = 0
		}
	}
	for name := range res.Metrics {
		if !names[name] {
			return fmt.Errorf("%s reported %s, which BENCHMARK.json does not declare", res.Workload, name)
		}
	}
	return nil
}

// exitCode is non-zero when any operation failed or failed verification.
func exitCode(res *result) int {
	if res.correct() {
		return 0
	}
	return 1
}

// runAll runs every workload untraced and traced, each run in a fresh child
// process so that heap, RSS and allocation counters start from zero, and
// writes the combined result file.
func runAll(root string, spec *benchSpec, seed uint64, seconds float64, outDir, out string) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	file := resultFile{Host: readHostInfo(root)}
	h := file.Host
	fmt.Printf("commit %s  %s  %s  nproc %d  GOMAXPROCS %d  seed %d  window %gs\n",
		h.GitCommit, h.GoVersion, h.CPUModel, h.NProc, h.GOMAXPROCS, seed, seconds)
	code := 0
	for _, w := range spec.Workloads {
		for trace := 0; trace <= 1; trace++ {
			tmp := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", w.Name, trace))
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", tmp)
			cmd.Dir = root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %d: %v\n", w.Name, trace, err)
				code = 1
			}
			var res result
			if err := readJSON(tmp, &res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			os.Remove(tmp)
			file.Runs = append(file.Runs, &res)
		}
	}
	if err := writeJSON(out, file); err != nil {
		return fail(err)
	}
	fmt.Printf("results: %s\n", out)
	return code
}
