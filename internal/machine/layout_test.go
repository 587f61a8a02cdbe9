package machine

import (
	"slices"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/partition"
)

func TestNodeLayoutUniform(t *testing.T) {
	nodeOf, n := NodeLayout(20, Model{ProcsPerNode: 8})
	if n != 3 {
		t.Errorf("numNodes = %d, want 3", n)
	}
	if nodeOf[0] != 0 || nodeOf[7] != 0 || nodeOf[8] != 1 || nodeOf[19] != 2 {
		t.Errorf("layout wrong: %v", nodeOf)
	}
}

func TestNodeLayoutHeterogeneous(t *testing.T) {
	mod := Model{ProcsPerNode: 8, NodeWidths: []int{2, 4}}
	nodeOf, n := NodeLayout(10, mod)
	// 2 on node 0, 4 on node 1, then cycle: 2 on node 2, 2 (partial) on node 3.
	want := []int{0, 0, 1, 1, 1, 1, 2, 2, 3, 3}
	if n != 4 {
		t.Errorf("numNodes = %d, want 4", n)
	}
	for i, w := range want {
		if nodeOf[i] != w {
			t.Errorf("proc %d on node %d, want %d", i, nodeOf[i], w)
			break
		}
	}
}

// A mix of 8-way and 32-way nodes (the NCAR system's two widths) changes
// which messages stay on-node, not what is computed or sent.
func TestHeterogeneousModelRuns(t *testing.T) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 16, NProcs: 768})
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWorkload()
	uni, err := SimulateStep(res.Mesh, res.Partition, w, NCARP690(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed := NCARP690()
	mixed.NodeWidths = []int{8, 32}
	het, err := SimulateStep(res.Mesh, res.Partition, w, mixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if het.StepTime <= 0 || uni.StepTime <= 0 {
		t.Fatal("non-positive step times")
	}
	// Identical compute; both must report the same flops and bytes.
	if het.TotalFlops != uni.TotalFlops || het.TotalCommBytes != uni.TotalCommBytes {
		t.Error("layout changed accounting totals")
	}
}

func TestOverlapReducesStepTime(t *testing.T) {
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 96})
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWorkload()
	blocking := NCARP690()
	overlapped := NCARP690()
	overlapped.Overlap = 1.0
	rb, err := SimulateStep(res.Mesh, res.Partition, w, blocking, nil)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := SimulateStep(res.Mesh, res.Partition, w, overlapped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ro.StepTime >= rb.StepTime {
		t.Errorf("full overlap %v not faster than blocking %v", ro.StepTime, rb.StepTime)
	}
	// With full overlap and comm < comp, the step time is pure compute.
	if maxComp := slices.Max(ro.ComputeTime); ro.StepTime > maxComp*1.0001 {
		t.Errorf("overlapped step %v should equal max compute %v", ro.StepTime, maxComp)
	}
}

func TestOverlapPartial(t *testing.T) {
	m := mustMesh(t, 4)
	k := m.NumElems()
	p := partition.New(k, 2)
	for e := 0; e < k; e++ {
		p.SetPart(e, e%2)
	}
	w := DefaultWorkload()
	half := NCARP690()
	half.Overlap = 0.5
	full := NCARP690()
	full.Overlap = 1.0
	r0, _ := SimulateStep(m, p, w, NCARP690(), nil)
	rh, _ := SimulateStep(m, p, w, half, nil)
	rf, _ := SimulateStep(m, p, w, full, nil)
	if !(rf.StepTime <= rh.StepTime && rh.StepTime <= r0.StepTime) {
		t.Errorf("overlap not monotone: %v %v %v", r0.StepTime, rh.StepTime, rf.StepTime)
	}
}
