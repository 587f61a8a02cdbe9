package trace

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/machine"
	"sfccube/internal/metis"
	"sfccube/internal/partition"
)

func simpleModel() machine.Model {
	return machine.Model{
		FlopsPerProc:    1e9,
		AlphaRemote:     10e-6,
		BetaRemote:      1e-9,
		AlphaLocal:      1e-6,
		BetaLocal:       1e-10,
		ProcsPerNode:    2,
		NodeAdapterBeta: 2e-9,
	}
}

func TestSimulateNoMessages(t *testing.T) {
	res, err := Simulate([]float64{1.5, 2.5, 0.5}, nil, simpleModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.StepTime != 2.5 {
		t.Errorf("step time %v, want 2.5 (slowest compute)", res.StepTime)
	}
	if res.Messages != 0 {
		t.Error("message count wrong")
	}
	for p, f := range res.Finish {
		want := []float64{1.5, 2.5, 0.5}[p]
		if f != want {
			t.Errorf("proc %d finish %v, want %v", p, f, want)
		}
	}
}

func TestSimulateSingleRemoteMessage(t *testing.T) {
	mod := simpleModel()
	// Procs 0 and 2 are on different 2-wide nodes.
	msgs := []Message{{From: 0, To: 2, Bytes: 1000}}
	res, err := Simulate([]float64{1.0, 0, 0}, msgs, mod)
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: compute 1.0, transmit through sender adapter (1000*2e-9 =
	// 2e-6), wire (10e-6 + 1000*1e-9 = 11e-6), receiver adapter 2e-6.
	want := 1.0 + 2e-6 + 11e-6 + 2e-6
	if math.Abs(res.Finish[2]-want) > 1e-12 {
		t.Errorf("receiver finish %v, want %v", res.Finish[2], want)
	}
	// The sender finishes when its transmit completes.
	if math.Abs(res.Finish[0]-(1.0+2e-6)) > 1e-12 {
		t.Errorf("sender finish %v", res.Finish[0])
	}
	if res.AdapterBusy[0] <= 0 || res.AdapterBusy[1] <= 0 {
		t.Error("adapters did not register busy time")
	}
}

func TestSimulateIntraNodeMessageSkipsAdapter(t *testing.T) {
	mod := simpleModel()
	msgs := []Message{{From: 0, To: 1, Bytes: 1000}} // same node
	res, err := Simulate([]float64{1.0, 0}, msgs, mod)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + mod.AlphaLocal + 1000*mod.BetaLocal
	if math.Abs(res.Finish[1]-want) > 1e-12 {
		t.Errorf("intra-node delivery %v, want %v", res.Finish[1], want)
	}
	if res.AdapterBusy[0] != 0 {
		t.Error("intra-node message used the adapter")
	}
}

// Two processors on one node sending off-node simultaneously must serialise
// through the shared adapter.
func TestSimulateAdapterContention(t *testing.T) {
	mod := simpleModel()
	msgs := []Message{
		{From: 0, To: 2, Bytes: 1e6},
		{From: 1, To: 3, Bytes: 1e6},
	}
	res, err := Simulate([]float64{0, 0, 0, 0}, msgs, mod)
	if err != nil {
		t.Fatal(err)
	}
	tx := 1e6 * mod.NodeAdapterBeta // 2 ms each
	// One of the receivers sees its message delayed by the other's
	// transmission: latest finish >= 2*tx.
	if res.StepTime < 2*tx {
		t.Errorf("no contention visible: step %v < %v", res.StepTime, 2*tx)
	}
	if res.AdapterBusy[0] < 2*tx-1e-12 {
		t.Errorf("sender adapter busy %v, want >= %v", res.AdapterBusy[0], 2*tx)
	}
}

func TestSimulateBadMessage(t *testing.T) {
	if _, err := Simulate([]float64{1}, []Message{{From: 0, To: 5, Bytes: 1}}, simpleModel()); err == nil {
		t.Error("out-of-range message accepted")
	}
	bad := simpleModel()
	bad.ProcsPerNode = 0
	if _, err := Simulate([]float64{1}, nil, bad); err == nil {
		t.Error("bad model accepted")
	}
}

func TestStepMessagesSymmetryAndVolume(t *testing.T) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 4, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := machine.DefaultWorkload()
	msgs := StepMessages(res.Mesh, res.Partition, w)
	// Every ordered pair appears in both directions with equal volume
	// (the mesh adjacency is symmetric and both weights are symmetric).
	vol := map[[2]int]int64{}
	for _, m := range msgs {
		vol[[2]int{m.From, m.To}] = m.Bytes
	}
	for k, v := range vol {
		if vol[[2]int{k[1], k[0]}] != v {
			t.Fatalf("asymmetric volume between %v", k)
		}
	}
	// Total bytes must match the analytic model's accounting.
	rep, err := machine.SimulateStep(res.Mesh, res.Partition, w, machine.NCARP690(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, m := range msgs {
		total += m.Bytes
	}
	if total != rep.TotalCommBytes {
		t.Errorf("message bytes %d != analytic %d", total, rep.TotalCommBytes)
	}
}

// TestStepMessagesArePairVolumes: the event-driven model queues exactly the
// table the analytic model sums over, entry for entry and in its order, on
// every call.
func TestStepMessagesArePairVolumes(t *testing.T) {
	prob, err := core.NewProblem(8)
	if err != nil {
		t.Fatal(err)
	}
	w := machine.DefaultWorkload()
	for _, method := range []string{"sfc", "kway"} {
		for _, nproc := range []int{96, 128} {
			p, err := core.Run(context.Background(), method, prob, nproc, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			pairs := machine.PairVolumes(prob.Mesh(), p, w)
			if !sort.SliceIsSorted(pairs, func(i, j int) bool {
				a, b := pairs[i], pairs[j]
				return a.From < b.From || a.From == b.From && a.To < b.To
			}) {
				t.Fatalf("%s/%d: pair table not sorted by (From, To)", method, nproc)
			}
			want := make([]Message, len(pairs))
			for i, pv := range pairs {
				want[i] = Message{From: pv.From, To: pv.To, Bytes: pv.Bytes}
			}
			for i := 0; i < 50; i++ {
				if got := StepMessages(prob.Mesh(), p, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%d: call %d: StepMessages differs from machine.PairVolumes", method, nproc, i)
				}
			}
		}
	}
}

// The event-driven simulator and the analytic model must agree on who wins:
// ranking of partitions by step time is preserved, and absolute times are
// within a factor of two of each other.
func TestTraceTracksAnalyticModel(t *testing.T) {
	const ne, nproc = 8, 96
	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nproc})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(res.Mesh, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	kway, err := metis.Partition(g, nproc, metis.Options{Method: metis.KWay})
	if err != nil {
		t.Fatal(err)
	}
	w := machine.DefaultWorkload()
	mod := machine.NCARP690()

	times := map[string][2]float64{}
	for name, p := range map[string]*partition.Partition{"sfc": res.Partition, "kway": kway} {
		an, err := machine.SimulateStep(res.Mesh, p, w, mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := SimulateStep(res.Mesh, p, w, mod)
		if err != nil {
			t.Fatal(err)
		}
		times[name] = [2]float64{an.StepTime, ev.StepTime}
		ratio := ev.StepTime / an.StepTime
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: event-driven %v vs analytic %v (ratio %v)",
				name, ev.StepTime, an.StepTime, ratio)
		}
	}
	// Ranking preserved.
	anWin := times["sfc"][0] <= times["kway"][0]
	evWin := times["sfc"][1] <= times["kway"][1]
	if anWin != evWin {
		t.Errorf("models disagree on the winner: analytic %v event %v", times["sfc"], times["kway"])
	}
}

func BenchmarkTraceK1536P768(b *testing.B) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 16, NProcs: 768})
	if err != nil {
		b.Fatal(err)
	}
	w := machine.DefaultWorkload()
	mod := machine.NCARP690()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateStep(res.Mesh, res.Partition, w, mod); err != nil {
			b.Fatal(err)
		}
	}
}
