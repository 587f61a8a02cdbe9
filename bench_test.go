// Package sfccube's root benchmarks regenerate every table and figure of
// Dennis (IPPS 2003). Each benchmark runs the corresponding experiment
// end-to-end and reports the headline quantity of that table/figure as a
// custom metric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation section in one command. See EXPERIMENTS.md for the
// paper-versus-measured comparison.
package sfccube_test

import (
	"runtime"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/experiments"
	"sfccube/internal/graph"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/seam"
)

// BenchmarkTable1Configs regenerates Table 1 (the SEAM test resolutions).
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if len(t.Rows) != 4 {
			b.Fatal("table 1 wrong")
		}
	}
}

// BenchmarkTable2PartitionStats regenerates Table 2: partition statistics
// for K=1536 on 768 processors with all four algorithms. The reported
// metric is the SFC time advantage over the best METIS partition.
func BenchmarkTable2PartitionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _, err := experiments.Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

func benchFigure(b *testing.B, run func(int64) (*experiments.Figure, error)) {
	b.Helper()
	var adv float64
	for i := 0; i < b.N; i++ {
		fig, err := run(1)
		if err != nil {
			b.Fatal(err)
		}
		adv = experiments.Advantage(fig)
	}
	b.ReportMetric(adv*100, "sfc-advantage-%")
}

// BenchmarkFig7SpeedupK384 regenerates Figure 7 (speedup, K=384; the paper
// reports a 37% SFC advantage at 384 processors).
func BenchmarkFig7SpeedupK384(b *testing.B) { benchFigure(b, experiments.Fig7) }

// BenchmarkFig8SpeedupK486 regenerates Figure 8 (speedup, K=486, m-Peano;
// paper: 51% at 486 processors).
func BenchmarkFig8SpeedupK486(b *testing.B) { benchFigure(b, experiments.Fig8) }

// BenchmarkFig9GflopsK384 regenerates Figure 9 (sustained Gflops, K=384).
func BenchmarkFig9GflopsK384(b *testing.B) { benchFigure(b, experiments.Fig9) }

// BenchmarkFig10GflopsK1536 regenerates Figure 10 (sustained Gflops,
// K=1536; paper: 22% at 768 processors).
func BenchmarkFig10GflopsK1536(b *testing.B) { benchFigure(b, experiments.Fig10) }

// BenchmarkK1944HilbertPeano regenerates the section-4 K=1944 comparison
// (the Hilbert-Peano curve's smaller advantage at 4 elements/processor).
func BenchmarkK1944HilbertPeano(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.K1944(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRefinementOrder sweeps the Hilbert-Peano refinement
// orders (the paper's section-5 open question).
func BenchmarkAblationRefinementOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOrder(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTVAnomaly reruns the KWAY-vs-TV communication volume
// comparison that the paper flags as contradictory.
func BenchmarkAblationTVAnomaly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTV(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrderings compares Hilbert against the Morton and
// serpentine baselines (continuity vs hierarchy).
func BenchmarkAblationOrderings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOrderings(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicRepartition runs the moving-storm dynamic load-balancing
// experiment (incremental SFC re-cut vs from-scratch KWAY).
func BenchmarkDynamicRepartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicRepartition(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFutureScaling runs the paper's future-work sweep: K=3456 out to
// 3456 processors (beyond the 768 the 2002 machine exposed).
func BenchmarkFutureScaling(b *testing.B) { benchFigure(b, experiments.FutureScaling) }

// --- component benchmarks: the building blocks the tables depend on ---

// BenchmarkSFCPartition measures the paper's algorithm itself at the largest
// resolution: curve generation plus segmentation for K=1536 on 768 procs.
func BenchmarkSFCPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.PartitionCubedSphere(core.Config{Ne: 16, NProcs: 768}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetisRB measures the recursive-bisection baseline on the same
// problem.
func BenchmarkMetisRB(b *testing.B) {
	g, err := graph.FromMesh(mustMesh(b, 16), graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Partition(g, 768, metis.Options{Method: metis.RB}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetisKWay measures the K-way baseline.
func BenchmarkMetisKWay(b *testing.B) {
	g, err := graph.FromMesh(mustMesh(b, 16), graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Partition(g, 768, metis.Options{Method: metis.KWay}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineStep measures one machine-model evaluation (the inner
// loop of every figure sweep).
func BenchmarkMachineStep(b *testing.B) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 16, NProcs: 768})
	if err != nil {
		b.Fatal(err)
	}
	w := machine.DefaultWorkload()
	mod := machine.NCARP690()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.SimulateStep(res.Mesh, res.Partition, w, mod, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSEAMStep measures one RK4 step of the real spectral element
// shallow-water core at the paper's smallest production resolution
// (Ne=8, np=8), reporting the sustained flop rate of this machine.
func BenchmarkSEAMStep(b *testing.B) {
	g, err := seam.NewGrid(8, 7, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		b.Fatal(err)
	}
	wind, phi := seam.Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.4)
	sw.Flops = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Step(dt)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(sw.Flops)/b.Elapsed().Seconds()/1e9, "Gflops")
	}
}

// BenchmarkParallelSEAM measures the in-process parallel runner with an SFC
// partition over 8 ranks.
func BenchmarkParallelSEAM(b *testing.B) {
	g, err := seam.NewGrid(8, 7, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		b.Fatal(err)
	}
	wind, phi := seam.Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	dt := sw.MaxStableDt(0.4)
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 8})
	if err != nil {
		b.Fatal(err)
	}
	r, err := seam.NewRunner(sw, res.Partition.Assignment(), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(1, dt)
	}
}

// --- SEAM hot-path micro-benchmarks (baseline recorded in BENCH_seam.json) ---
//
// These pin the perf trajectory of the flat-slab compute core and the
// runner. Record a new baseline with:
//
//	go test -run '^$' -bench 'Benchmark(RHS|DSSApply|SEAMStep|RunnerStep(Obs|P[124])?)$' -benchtime 30x .
//
// (plus BenchmarkDiffAlphaBeta at 10000x and internal/seam's BenchmarkNewDSS)
// and append a BENCH_seam.json entry carrying every key.

// benchSEAM builds the Williamson-2 shallow-water state at the paper's
// K=384 resolution (ne=8, np=8), the configuration the BENCH_seam.json
// baseline tracks.
func benchSEAM(b *testing.B) (*seam.ShallowWater, float64) {
	b.Helper()
	g, err := seam.NewGrid(8, 7, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		b.Fatal(err)
	}
	wind, phi := seam.Williamson2(g.Radius, g.Omega, 40, 2.94e4)
	sw.SetState(wind, phi)
	return sw, sw.MaxStableDt(0.4)
}

// BenchmarkRHS measures one RK stage's tendency evaluation plus DSS
// projection (the batched element kernels) over all K=384 elements.
func BenchmarkRHS(b *testing.B) {
	sw, _ := benchSEAM(b)
	sw.Flops = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.RHS()
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(sw.Flops)/b.Elapsed().Seconds()/1e9, "Gflops")
	}
}

// BenchmarkDSSApply measures one scalar + one vector DSS application through
// the precomputed gather/scatter exchange plan.
func BenchmarkDSSApply(b *testing.B) {
	sw, _ := benchSEAM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Dss.Apply(sw.Phi)
		sw.Dss.ApplyVector(sw.V1, sw.V2)
	}
}

// BenchmarkRunnerStep measures one full RK4 step of the parallel runner in
// the paper's most oversubscribed configuration: K=384 elements on 384
// ranks (one element per rank), under the dependency-driven epoch scheduler
// (blocks of ranks over the available workers; one block on the caller when
// there is one). The acceptance bar for the raw-speed-ceiling rework was >= 2x
// over the previous baseline at this configuration; see BENCH_seam.json for
// the recorded trajectory.
func BenchmarkRunnerStep(b *testing.B) {
	sw, dt := benchSEAM(b)
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 384})
	if err != nil {
		b.Fatal(err)
	}
	r, err := seam.NewRunner(sw, res.Partition.Assignment(), 384)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(1, dt)
	}
}

// BenchmarkRunnerStepObs is BenchmarkRunnerStep with a live obs.Registry
// attached: every stage span, DSS assembly, epoch wait and per-rank busy
// gauge is recorded. The acceptance bar for the observability layer is <=5%
// overhead versus BenchmarkRunnerStep (and <1% for the default nil-registry
// path, which BenchmarkRunnerStep itself exercises since instrumentation is
// compiled in but disabled). Compare the two ns/op medians directly; see
// BENCH_seam.json (runner_step_obs_ns_per_op) for the recorded trajectory.
func BenchmarkRunnerStepObs(b *testing.B) {
	sw, dt := benchSEAM(b)
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 384})
	if err != nil {
		b.Fatal(err)
	}
	r, err := seam.NewRunner(sw, res.Partition.Assignment(), 384)
	if err != nil {
		b.Fatal(err)
	}
	r.Instrument(obs.NewRegistry(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(1, dt)
	}
}

// benchRunnerStepP measures BenchmarkRunnerStep at a pinned parallelism:
// GOMAXPROCS and Runner.Workers both set to p, so the recorded curve
// (BENCH_seam.json runner_step_p{1,2,4}_ns_per_op) is the scheduler's
// scaling behaviour, not whatever the host machine happens to expose. P1
// is one block run inline on the caller; P2/P4 schedule 16/32 blocks. With
// fewer cores than p the extra workers are time-sliced and measure scheduler
// overhead rather than speedup — the curve is recorded either way.
func benchRunnerStepP(b *testing.B, p int) {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	sw, dt := benchSEAM(b)
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 384})
	if err != nil {
		b.Fatal(err)
	}
	r, err := seam.NewRunner(sw, res.Partition.Assignment(), 384)
	if err != nil {
		b.Fatal(err)
	}
	r.Workers = p
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(1, dt)
	}
}

func BenchmarkRunnerStepP1(b *testing.B) { benchRunnerStepP(b, 1) }
func BenchmarkRunnerStepP2(b *testing.B) { benchRunnerStepP(b, 2) }
func BenchmarkRunnerStepP4(b *testing.B) { benchRunnerStepP(b, 4) }

// BenchmarkDiffAlphaBeta measures the spectral differentiation micro-kernel
// (both directions of one Np=8 element) and asserts, via -benchmem in the
// regression run, that it allocates nothing.
func BenchmarkDiffAlphaBeta(b *testing.B) {
	g, err := seam.NewGrid(2, 7, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	npts := g.PointsPerElem()
	u := make([]float64, npts)
	for i := range u {
		u[i] = float64(i%7) - 3
	}
	dua := make([]float64, npts)
	dub := make([]float64, npts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DiffAlphaBeta(u, dua, dub)
	}
}

// BenchmarkPartitionStats measures metric evaluation (edgecut, LB, TCV).
func BenchmarkPartitionStats(b *testing.B) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 16, NProcs: 768})
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromMesh(res.Mesh, graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.ComputeStats(g, res.Partition); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelFidelity cross-checks the analytic machine model against
// the discrete-event simulator on the Table-2 configuration.
func BenchmarkModelFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ModelFidelity(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAMRPartition partitions an adaptively refined cubed-sphere.
func BenchmarkAMRPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AMRPartition(1); err != nil {
			b.Fatal(err)
		}
	}
}

// mustMesh builds a cubed-sphere mesh or fails the benchmark.
func mustMesh(tb testing.TB, ne int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
