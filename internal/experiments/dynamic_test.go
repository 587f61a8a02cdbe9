package experiments

import (
	"testing"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
)

// TestDynamicLBWideWeight: a weight above 2^31-1, which SetWeights and
// StatsOver accept, counts at its full value in the dynamic table's LB(w),
// which must equal the load balance over the int64 part weights the stats
// report. An int32 part sum would wrap it negative.
func TestDynamicLBWideWeight(t *testing.T) {
	m, err := mesh.New(2)
	if err != nil {
		t.Fatal(err)
	}
	k, nparts := m.NumElems(), 3
	w := make([]int64, k)
	for v := range w {
		w[v] = 1
	}
	w[9] = 1<<31 + 7
	part := partition.New(k, nparts)
	for v := 0; v < k; v++ {
		part.SetPart(v, v*nparts/k)
	}
	st, err := partition.StatsOver(graph.NewMeshView(m, graph.DefaultOptions()), part, w)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{8, 1<<31 + 14, 8}; st.PartWeights[1] != want[1] || st.LBWeighted != partition.LoadBalance(want) {
		t.Fatalf("stats: part weights %v LB %v, want %v", st.PartWeights, st.LBWeighted, want)
	}
	if got := weightedLB(part, w); got != st.LBWeighted {
		t.Errorf("dynamic LB(w) = %v, int64 reference %v", got, st.LBWeighted)
	}
}
