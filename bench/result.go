package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64 // length of the timed window; fixed counts scale with it
	trace     bool
	setupReps int
	outDir    string // where trace-<workload>.jsonl goes
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is everything one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Ops       int                `json:"ops"` // timed ops completed OK: the sample count of every timing
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Tail      map[string]float64 `json:"tail,omitempty"` // recorded, not gated
	CalibMs   float64            `json:"calib_ms"`
	Drift     float64            `json:"calib_drift"`
	Noisy     bool               `json:"noisy"`
}

func newResult(cfg runConfig) *result {
	return &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]float64{}}
}

func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = v
}

func (r *result) count(attempted, failed int, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if err != nil && r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

// fails counts one failed op per error.
func (r *result) fails(errs []error) {
	for _, err := range errs {
		r.count(0, 1, err)
	}
}

// setTimed reports the metrics of a timed window: latMs holds the latency of
// every op completed OK, cpu and the two memory readings bracket the window.
func (r *result) setTimed(latMs []float64, wall, cpu time.Duration, mem0, mem1 memCounters) {
	r.Ops = len(latMs)
	if r.Ops == 0 {
		return
	}
	ok := float64(r.Ops)
	r.set("ops_per_s", ok/wall.Seconds())
	r.set("op_p50_ms", quantile(latMs, 0.50))
	r.set("op_p95_ms", quantile(latMs, 0.95))
	r.set("cpu_ms_per_op", ms(cpu)/ok)
	r.set("allocs_per_op", float64(mem1.mallocs-mem0.mallocs)/ok)
	r.set("alloc_kb_per_op", float64(mem1.totalAlloc-mem0.totalAlloc)/1024/ok)
	r.Tail = map[string]float64{
		"tail.op_p99_ms": quantile(latMs, 0.99),
		"tail.op_max_ms": quantile(latMs, 1),
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// finishCalib takes the second canary reading and flags the run noisy when
// the host's speed moved by more than 10 % across it.
func (r *result) finishCalib(before time.Duration) {
	after := calibrate()
	r.CalibMs = (ms(before) + ms(after)) / 2
	r.Drift = math.Abs(ms(after)-ms(before)) / ms(before)
	r.Noisy = r.Drift > 0.10
}

// finishProc closes a traced run: the canary plus the process-wide counters
// that explain cpu_ms_per_op and alloc_kb_per_op.
func (r *result) finishProc(before time.Duration) {
	r.finishCalib(before)
	mem := readMem()
	r.set("proc.peak_rss_mb", peakRSSMiB())
	r.set("proc.gc_cycles", float64(mem.gcCycles))
	r.set("proc.gc_pause_ms", ms(mem.gcPause))
	r.set("host.calib_ms", r.CalibMs)
	r.set("host.calib_drift", r.Drift)
}

// printText prints every metric of the run by name with its unit.
func (r *result) printText(w io.Writer, spec *benchSpec) {
	noisy := ""
	if r.Noisy {
		noisy = "  NOISY"
	}
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v  ops %d  attempted %d  failed %d  calib %.2f ms  drift %.1f %%%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Ops, r.Attempted, r.Failed, r.CalibMs, 100*r.Drift, noisy)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstErr)
	}
	list := spec.EndToEnd
	if r.Trace {
		list = spec.PerLayer
	}
	for _, m := range list {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (n=%d)\n", m.Name, v, m.Unit, r.Ops)
		}
	}
	for _, name := range []string{"tail.op_p99_ms", "tail.op_max_ms"} {
		if v, ok := r.Tail[name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (not gated)\n", name, v, "ms")
		}
	}
}

// printContractLine prints the one JSON object the benchmark contract asks
// for as the last line of standard output.
func (r *result) printContractLine(w io.Writer, spec *benchSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	units := spec.units()
	metrics := make(map[string]value, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = value{v, units[name]}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultFile is bench/out/result.json: provenance plus every run.
type resultFile struct {
	Host hostInfo  `json:"host"`
	Runs []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
