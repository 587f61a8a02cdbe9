package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/resilience"
	"sfccube/internal/seam"
)

// The seam-step configuration is BENCH_seam.json's: Ne=8, degree 7 (Np=8),
// 384 elements on 384 ranks cut by the SFC partitioner, Williamson 2,
// dt = MaxStableDt(0.3). One op is Runner.Run(stepsPerOp, dt).
const (
	seamNe     = 8
	seamDegree = 7
	seamRanks  = 384
	stepsPerOp = 4
	twinOps    = 8 // leading timed ops compared bitwise with ShallowWater.Step
)

// seamCase is one solver on the benchmark grid. The seed tilts the flow and
// rotation axis of Williamson 2 (steady for every tilt): another seed is
// another initial state on the same mesh, at the same cost per step.
type seamCase struct {
	sw *seam.ShallowWater
	dt float64
}

func newSeamCase(seed uint64) (*seamCase, error) {
	g, err := seam.NewGrid(seamNe, seamDegree, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		return nil, err
	}
	r := &rng{s: seed}
	alpha := r.float() * math.Pi / 4
	if err := g.SetRotationAxis(mesh.Vec3{X: math.Sin(alpha), Z: math.Cos(alpha)}); err != nil {
		return nil, err
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		return nil, err
	}
	wind, phi := seam.Williamson2Rotated(g.Radius, g.Omega, 40, 2.94e4, alpha)
	sw.SetState(wind, phi)
	return &seamCase{sw: sw, dt: sw.MaxStableDt(0.3)}, nil
}

// newSeamRunner cuts the mesh into nranks curve segments and builds a runner on
// a fresh solver.
func newSeamRunner(seed uint64, nranks int) (*seam.Runner, *core.Result, float64, error) {
	c, err := newSeamCase(seed)
	if err != nil {
		return nil, nil, 0, err
	}
	cut, err := core.PartitionCubedSphere(core.Config{Ne: seamNe, NProcs: nranks})
	if err != nil {
		return nil, nil, 0, err
	}
	r, err := seam.NewRunner(c.sw, cut.Partition.Assignment(), nranks)
	if err != nil {
		return nil, nil, 0, err
	}
	return r, cut, c.dt, nil
}

func stateOf(sw *seam.ShallowWater) [3][]float64 {
	v1, v2, phi := sw.StateSlabs()
	return [3][]float64{append([]float64(nil), v1...), append([]float64(nil), v2...), append([]float64(nil), phi...)}
}

func copyState(dst *[3][]float64, sw *seam.ShallowWater) {
	v1, v2, phi := sw.StateSlabs()
	copy(dst[0], v1)
	copy(dst[1], v2)
	copy(dst[2], phi)
}

func sameBits(a, b [3][]float64) bool {
	for f := range a {
		if len(a[f]) != len(b[f]) {
			return false
		}
		for i := range a[f] {
			if math.Float64bits(a[f][i]) != math.Float64bits(b[f][i]) {
				return false
			}
		}
	}
	return true
}

// runSeam is the untraced run of seam-step: one closed-loop driver calling
// Runner.Run until the window has elapsed.
func runSeam(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	warmup := max(2, int(refRate[wlSeamStep]*cfg.seconds*0.05))

	var (
		r      *seam.Runner
		cut    *core.Result
		dt     float64
		setups []float64
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		var err error
		if r, cut, dt, err = newSeamRunner(cfg.seed, seamRanks); err != nil {
			return nil, err
		}
		for i := 0; i < warmup; i++ {
			r.Run(stepsPerOp, dt)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	mass0 := r.SW.TotalMass()

	res.set("live_heap_mb", liveHeapMiB())
	// Allocated before the window, so that alloc_kb_per_op is the runner's.
	latMs := make([]float64, 0, int(8*refRate[wlSeamStep]*cfg.seconds))
	snaps := make([][3][]float64, twinOps)
	for i := range snaps {
		snaps[i] = stateOf(r.SW)
	}
	taken := 0
	calib0 := calibrate()
	mem0, cpu0 := readMem(), cpuTime()
	start := time.Now()
	for time.Since(start) < cfg.window() {
		t0 := time.Now()
		r.Run(stepsPerOp, dt)
		latMs = append(latMs, ms(time.Since(t0)))
		if taken < twinOps {
			copyState(&snaps[taken], r.SW)
			taken++
		}
	}
	wall := time.Since(start)
	cpu1, mem1 := cpuTime(), readMem()
	res.finishCalib(calib0)
	res.count(len(latMs), 0, nil)

	// Verification: the leading ops against a twin sequential solver, then
	// the final state.
	twin, err := newSeamCase(cfg.seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmup*stepsPerOp; i++ {
		twin.sw.Step(dt)
	}
	for i, snap := range snaps[:taken] {
		for s := 0; s < stepsPerOp; s++ {
			twin.sw.Step(dt)
		}
		if !sameBits(snap, stateOf(twin.sw)) {
			res.count(0, 1, fmt.Errorf("op %d: runner state differs bitwise from ShallowWater.Step", i))
		}
	}
	if err := resilience.CheckFinite(r.SW); err != nil {
		res.count(0, 1, err)
	}
	if drift := math.Abs(r.SW.TotalMass()-mass0) / math.Abs(mass0); !(drift <= 1e-9) {
		res.count(0, 1, fmt.Errorf("relative mass drift %g exceeds 1e-9", drift))
	}
	eff, _, err := seamPartitionQuality(cut)
	if err != nil {
		res.count(0, 1, err)
	}

	res.set("setup_s", median(setups))
	res.setTimed(latMs, wall, cpu1-cpu0, mem0, mem1)
	res.set("sim_efficiency", eff)
	return res, nil
}

// seamPartitionQuality is the modelled parallel efficiency and the stats of
// the partition the runner executes.
func seamPartitionQuality(cut *core.Result) (float64, partition.Stats, error) {
	var none partition.Stats
	model, load := machine.NCARP690(), machine.DefaultWorkload()
	step, err := machine.SimulateStep(cut.Mesh, cut.Partition, load, model, nil)
	if err != nil {
		return 0, none, err
	}
	serial, err := machine.SerialStep(cut.Mesh, load, model, nil)
	if err != nil {
		return 0, none, err
	}
	g, err := graph.FromMesh(cut.Mesh, graph.DefaultOptions())
	if err != nil {
		return 0, none, err
	}
	st, err := partition.ComputeStats(g, cut.Partition)
	if err != nil {
		return 0, none, err
	}
	return machine.Speedup(serial, step) / float64(cut.Partition.NumParts()), st, nil
}

// runSeamTraced is the traced run of seam-step: every layer of the step
// timed through its public entry point, a span per call.
func runSeamTraced(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	start := time.Now()
	rec := newRecorder()
	nproc := runtime.GOMAXPROCS(0)
	// Calls per measurement: fixed for a window length, so counts repeat.
	ops := max(2, int(cfg.seconds*10))

	// perStep runs f ops times inside spans and returns the mean ms per step,
	// f covering stepsIn steps.
	perStep := func(name string, stepsIn int, f func()) float64 {
		f() // lazy state and caches first
		var total time.Duration
		for i := 0; i < ops; i++ {
			_, d := rec.timed(i, 0, name, f)
			total += d
		}
		res.Attempted += ops
		return ms(total) / float64(ops*stepsIn)
	}

	c, err := newSeamCase(cfg.seed)
	if err != nil {
		return nil, err
	}
	seq := perStep("seam.seq_step", stepsPerOp, func() {
		for s := 0; s < stepsPerOp; s++ {
			c.sw.Step(c.dt)
		}
	})
	calib0 := calibrate()
	rhs := perStep("seam.rhs", stepsPerOp, func() {
		for s := 0; s < stepsPerOp; s++ {
			c.sw.RHS()
		}
	})
	dss := perStep("seam.dss", stepsPerOp, func() {
		for s := 0; s < stepsPerOp; s++ {
			c.sw.Dss.Apply(c.sw.Phi)
			c.sw.Dss.ApplyVector(c.sw.V1, c.sw.V2)
		}
	})

	runner := func(name string, nranks, workers int) (float64, *seam.Runner, *core.Result, error) {
		r, cut, dt, err := newSeamRunner(cfg.seed, nranks)
		if err != nil {
			return 0, nil, nil, err
		}
		r.Workers = workers
		return perStep(name, stepsPerOp, func() { r.Run(stepsPerOp, dt) }), r, cut, nil
	}
	p1, _, _, err := runner("seam.runner_p1", seamRanks, 1)
	if err != nil {
		return nil, err
	}
	pn, rn, cut, err := runner("seam.runner_pn", seamRanks, nproc)
	if err != nil {
		return nil, err
	}
	r24, _, _, err := runner("seam.runner_r24", 24, 0)
	if err != nil {
		return nil, err
	}

	// Wait and imbalance come from the runner's own public instrumentation.
	ri, _, dt, err := newSeamRunner(cfg.seed, seamRanks)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ri.Instrument(reg, nil)
	ri.Run(stepsPerOp, dt)
	wait0 := reg.Snapshot()["seam_epoch_wait_ns_sum"]
	// BusyTime is per Run call. A rank's busy time is its median over the
	// calls: one descheduled task span would otherwise own the maximum.
	busy := make([][]float64, seamRanks)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		ri.Run(stepsPerOp, dt)
		for rk, b := range ri.BusyTime {
			busy[rk] = append(busy[rk], float64(b))
		}
	}
	instrWall := time.Since(t0)
	waitNs := reg.Snapshot()["seam_epoch_wait_ns_sum"] - wait0
	var busyMax, busySum float64
	for _, calls := range busy {
		b := median(calls)
		busyMax = max(busyMax, b)
		busySum += b
	}
	workers := min(seamRanks, nproc)

	_, st, err := seamPartitionQuality(cut)
	if err != nil {
		res.count(0, 1, err)
	}
	if err := resilience.CheckFinite(rn.SW); err != nil {
		res.count(0, 1, err)
	}
	var bytesPerStep int64
	for _, b := range rn.BytesPerStep() {
		bytesPerStep += b
	}
	flops := float64(seam.StepFlopsShallowWater(seamDegree+1)) * float64(6*seamNe*seamNe)

	res.Ops = ops
	res.set("seam.seq_step_ms", seq)
	res.set("seam.rhs_ms", rhs)
	res.set("seam.dss_ms", dss)
	res.set("seam.runner_p1_step_ms", p1)
	res.set("seam.runner_pn_step_ms", pn)
	res.set("seam.runner_r24_step_ms", r24)
	if nproc >= 2 {
		// With fewer than two cores there is no wall-clock scaling to report.
		res.set("seam.parallel_eff", p1/(pn*float64(nproc)))
	}
	res.set("seam.runner_overhead_frac", p1/seq-1)
	res.set("seam.epoch_wait_frac", waitNs/(float64(workers)*float64(instrWall)))
	res.set("seam.busy_imbalance", busyMax/(busySum/seamRanks))
	res.set("seam.flops_per_step", flops)
	res.set("seam.gflops", flops/(pn*1e6))
	res.set("seam.dss_bytes_per_step", float64(bytesPerStep))
	res.set("partition.lb_nelemd", st.LBNelemd)
	res.set("partition.edgecut", float64(st.EdgeCut))
	res.set("partition.tcv", float64(st.TotalCommVolume))
	// An RK4 step is four RHS evaluations (each with its DSS) plus the update.
	res.set("trace.coverage", 4*rhs/seq)
	res.set("trace.overhead_frac", float64(rec.self)/float64(time.Since(start)))
	res.finishProc(calib0)
	return res, rec.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"))
}
