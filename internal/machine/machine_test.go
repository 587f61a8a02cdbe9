package machine

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
)

func TestSEAMWorkloadScaling(t *testing.T) {
	w1 := SEAMWorkload(7, 3, 1)
	w16 := SEAMWorkload(7, 3, 16)
	if w16.FlopsPerElem != 16*w1.FlopsPerElem {
		t.Error("flops not linear in levels")
	}
	if w16.BytesPerEdge != 16*w1.BytesPerEdge {
		t.Error("edge bytes not linear in levels")
	}
	if w1.BytesPerEdge != 8*8*3 {
		t.Errorf("edge bytes = %d, want %d", w1.BytesPerEdge, 8*8*3)
	}
	if w1.BytesPerCorner != 8*3 {
		t.Errorf("corner bytes = %d", w1.BytesPerCorner)
	}
}

func TestSerialStepRate(t *testing.T) {
	m := mustMesh(t, 8)
	mod := NCARP690()
	w := DefaultWorkload()
	rep, err := SerialStep(m, w, mod, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A single processor sustains exactly the calibrated rate.
	if g := rep.SustainedGflops(); math.Abs(g-0.841) > 1e-9 {
		t.Errorf("serial sustained rate %v Gflops, want 0.841", g)
	}
	if rep.TotalCommBytes != 0 {
		t.Error("serial run has communication")
	}
	// The paper: 841 Mflops is 16% of Power-4 peak (1.3 GHz x 4 flops/cycle).
	if frac := mod.FlopsPerProc / 5.2e9; math.Abs(frac-0.16) > 0.005 {
		t.Errorf("sustained fraction of peak %v, want about 0.16", frac)
	}
}

func TestSimulateStepErrors(t *testing.T) {
	m := mustMesh(t, 2)
	p := partition.New(5, 2)
	if _, err := SimulateStep(m, p, DefaultWorkload(), NCARP690(), nil); err == nil {
		t.Error("size mismatch accepted")
	}
	p2 := partition.New(m.NumElems(), 2)
	bad := NCARP690()
	bad.ProcsPerNode = 0
	if _, err := SimulateStep(m, p2, DefaultWorkload(), bad, nil); err == nil {
		t.Error("ProcsPerNode=0 accepted")
	}
}

func TestPerfectPartitionBalancesCompute(t *testing.T) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 96})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateStep(res.Mesh, res.Partition, DefaultWorkload(), NCARP690(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q < rep.NProcs; q++ {
		if math.Abs(rep.ComputeTime[q]-rep.ComputeTime[0]) > 1e-12 {
			t.Fatalf("compute time differs across procs: %v vs %v",
				rep.ComputeTime[q], rep.ComputeTime[0])
		}
	}
	if rep.StepTime <= slices.Max(rep.ComputeTime) {
		t.Error("step time must include communication")
	}
}

// Imbalanced partitions must be slower than balanced ones on the same
// problem: the core mechanism of the paper.
func TestImbalancePenalty(t *testing.T) {
	m := mustMesh(t, 8)
	k := m.NumElems()
	nproc := 96
	balanced := partition.New(k, nproc)
	lumpy := partition.New(k, nproc)
	for e := 0; e < k; e++ {
		balanced.SetPart(e, e*nproc/k)
		lumpy.SetPart(e, e*nproc/k)
	}
	// Overload processor 0 with two extra elements.
	lumpy.SetPart(k-1, 0)
	lumpy.SetPart(k-2, 0)
	w := DefaultWorkload()
	mod := NCARP690()
	rb, err := SimulateStep(m, balanced, w, mod, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := SimulateStep(m, lumpy, w, mod, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rl.StepTime <= rb.StepTime {
		t.Errorf("imbalanced step %v not slower than balanced %v", rl.StepTime, rb.StepTime)
	}
	if slices.Max(rl.ComputeTime) <= slices.Max(rb.ComputeTime) {
		t.Error("overloaded processor must dominate compute time")
	}
}

// Weighted elements shift compute time accordingly.
func TestWeightedElements(t *testing.T) {
	m := mustMesh(t, 2)
	k := m.NumElems()
	p := partition.New(k, 2)
	for e := k / 2; e < k; e++ {
		p.SetPart(e, 1)
	}
	weights := make([]float64, k)
	for e := range weights {
		weights[e] = 1
	}
	weights[0] = 5 // element 0 in part 0 costs 5x
	rep, err := SimulateStep(m, p, DefaultWorkload(), NCARP690(), weights)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeTime[0] <= rep.ComputeTime[1] {
		t.Error("weighted part not slower")
	}
}

// Messages within an SMP node must be cheaper than across nodes.
func TestSMPLocality(t *testing.T) {
	m := mustMesh(t, 4)
	k := m.NumElems()
	// Two processors: same node vs different nodes.
	p := partition.New(k, 2)
	for e := 0; e < k; e++ {
		p.SetPart(e, e%2)
	}
	w := DefaultWorkload()
	local := NCARP690() // procs 0,1 on node 0
	remote := NCARP690()
	remote.ProcsPerNode = 1 // every proc its own node
	rl, _ := SimulateStep(m, p, w, local, nil)
	rr, _ := SimulateStep(m, p, w, remote, nil)
	if rl.CommTime[0] >= rr.CommTime[0] {
		t.Errorf("local comm %v not cheaper than remote %v", rl.CommTime[0], rr.CommTime[0])
	}
}

// Speedup of a perfectly balanced compute-only workload approaches nproc
// when communication is free.
func TestSpeedupLimit(t *testing.T) {
	m := mustMesh(t, 4)
	mod := NCARP690()
	mod.AlphaRemote, mod.BetaRemote, mod.AlphaLocal, mod.BetaLocal = 0, 0, 0, 0
	mod.NodeAdapterBeta = 0
	w := DefaultWorkload()
	serial, _ := SerialStep(m, w, mod, nil)
	res, err := core.PartitionCubedSphere(core.Config{Ne: 4, NProcs: 24})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := SimulateStep(m, res.Partition, w, mod, nil)
	if s := Speedup(serial, rep); math.Abs(s-24) > 1e-9 {
		t.Errorf("free-communication speedup %v, want 24", s)
	}
}

// Every sent byte has a destination: total bytes equal the sum over the
// volume map, and message counts are plausible.
func TestCommAccounting(t *testing.T) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 4, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateStep(res.Mesh, res.Partition, DefaultWorkload(), NCARP690(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for q := 0; q < rep.NProcs; q++ {
		sum += rep.CommBytes[q]
		if rep.Messages[q] < 1 || rep.Messages[q] >= rep.NProcs {
			t.Errorf("proc %d sends %d messages", q, rep.Messages[q])
		}
	}
	if sum != rep.TotalCommBytes {
		t.Errorf("comm bytes sum %d != total %d", sum, rep.TotalCommBytes)
	}
}

// TestSimulateStepDeterministic: the whole report is the same, float for
// float, on every call. CommTime used to add its per-message terms in map
// order, and fig7.csv/fig9.csv differed in the last digit from run to run.
func TestSimulateStepDeterministic(t *testing.T) {
	prob, err := core.NewProblem(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"sfc", "kway"} {
		for _, nproc := range []int{96, 128} {
			p, err := core.Run(context.Background(), method, prob, nproc, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			first, err := SimulateStep(prob.Mesh(), p, DefaultWorkload(), NCARP690(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 50; i++ {
				again, _ := SimulateStep(prob.Mesh(), p, DefaultWorkload(), NCARP690(), nil)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("%s/%d: call %d differs from the first:\n%+v\n%+v", method, nproc, i, first, again)
				}
			}
		}
	}
}

// mustMesh builds a cubed-sphere mesh or fails the test.
func mustMesh(tb testing.TB, ne int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
