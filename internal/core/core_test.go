package core

import (
	"errors"
	"testing"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

func TestPartitionCubedSphereBasics(t *testing.T) {
	// The paper's four resolutions (Table 1) at representative processor
	// counts.
	cases := []struct{ ne, nproc int }{
		{8, 96}, {8, 384}, {9, 54}, {9, 486}, {16, 768}, {18, 486},
	}
	for _, c := range cases {
		res, err := PartitionCubedSphere(Config{Ne: c.ne, NProcs: c.nproc})
		if err != nil {
			t.Fatalf("ne=%d nproc=%d: %v", c.ne, c.nproc, err)
		}
		k := 6 * c.ne * c.ne
		if res.Mesh.NumElems() != k || res.Partition.NumVertices() != k {
			t.Fatalf("ne=%d: wrong sizes", c.ne)
		}
		counts := res.Partition.Counts()
		for q, cnt := range counts {
			if cnt != k/c.nproc {
				t.Fatalf("ne=%d nproc=%d: part %d has %d elements, want %d",
					c.ne, c.nproc, q, cnt, k/c.nproc)
			}
		}
		// Perfect load balance: equation (1) gives exactly zero.
		if lb := partition.LoadBalance(counts); lb != 0 {
			t.Errorf("ne=%d nproc=%d: LB=%v, want 0", c.ne, c.nproc, lb)
		}
	}
}

func TestPartitionCubedSphereErrors(t *testing.T) {
	if _, err := PartitionCubedSphere(Config{Ne: 5, NProcs: 2}); err == nil {
		t.Error("Ne=5 (not 2^n 3^m) accepted")
	}
	if _, err := PartitionCubedSphere(Config{Ne: 0, NProcs: 1}); err == nil {
		t.Error("Ne=0 accepted")
	}
	if _, err := PartitionCubedSphere(Config{Ne: 2, NProcs: 0}); err == nil {
		t.Error("NProcs=0 accepted")
	}
	if _, err := PartitionCubedSphere(Config{Ne: 2, NProcs: 25}); err == nil {
		t.Error("NProcs > K accepted")
	}
}

// Each part must be a contiguous segment of the curve.
func TestPartsAreCurveSegments(t *testing.T) {
	res, err := PartitionCubedSphere(Config{Ne: 6, NProcs: 27})
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for r := 0; r < res.Curve.Len(); r++ {
		part := res.Partition.Part(int(res.Curve.At(r)))
		if part < last {
			t.Fatalf("parts not monotone along the curve at rank %d", r)
		}
		last = part
	}
}

func TestWeightedPartitioning(t *testing.T) {
	ne := 4
	k := 6 * ne * ne
	weights := make([]int64, k)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 50 // one very expensive element
	res, err := PartitionCubedSphere(Config{Ne: ne, NProcs: 4, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	// The heavy element's part should hold far fewer elements.
	heavyPart := res.Partition.Part(0)
	counts := res.Partition.Counts()
	for q, c := range counts {
		if q != heavyPart && c < counts[heavyPart] {
			t.Errorf("part %d (light) has %d < heavy part's %d", q, c, counts[heavyPart])
		}
	}
	// Weighted balance must be decent.
	if lb := partition.LoadBalance(partLoads(res.Partition, weights)); lb > 0.35 {
		t.Errorf("weighted LB = %v, want < 0.35", lb)
	}
}

func TestWeightsLengthError(t *testing.T) {
	if _, err := PartitionCubedSphere(Config{Ne: 2, NProcs: 2, Weights: []int64{1, 2}}); err == nil {
		t.Error("short weights accepted")
	}
}

func TestRefinementOrdersAllWork(t *testing.T) {
	for _, o := range []sfc.Order{sfc.PeanoFirst, sfc.HilbertFirst, sfc.Interleaved} {
		res, err := PartitionCubedSphere(Config{Ne: 12, NProcs: 24, Order: o})
		if err != nil {
			t.Fatalf("order %v: %v", o, err)
		}
		if lb := partition.LoadBalance(res.Partition.Counts()); lb != 0 {
			t.Errorf("order %v: LB=%v", o, lb)
		}
	}
}

func TestEqualProcCounts(t *testing.T) {
	counts := EqualProcCounts(8) // K=384
	if counts[0] != 1 || counts[len(counts)-1] != 384 {
		t.Errorf("range wrong: %v", counts)
	}
	for _, p := range counts {
		if 384%p != 0 {
			t.Errorf("%d does not divide 384", p)
		}
	}
	// Table 1 processor counts must all be present for their resolutions.
	has := func(s []int, v int) bool {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, p := range []int{96, 384} {
		if !has(counts, p) {
			t.Errorf("K=384 missing processor count %d", p)
		}
	}
	c486 := EqualProcCounts(9)
	if !has(c486, 486) || !has(c486, 54) {
		t.Error("K=486 missing processor counts")
	}
}

// SFC partitions must have lower edgecut than striding the elements by id,
// demonstrating the locality property on the real mesh graph.
func TestSFCBeatsNaiveOrdering(t *testing.T) {
	res, err := PartitionCubedSphere(Config{Ne: 8, NProcs: 48})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(res.Mesh, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sfcStats, err := partition.ComputeStats(g, res.Partition)
	if err != nil {
		t.Fatal(err)
	}
	k := res.Mesh.NumElems()
	naive := partition.New(k, 48)
	for e := 0; e < k; e++ {
		naive.SetPart(e, e%48)
	}
	naiveStats, _ := partition.ComputeStats(g, naive)
	if sfcStats.EdgeCut*2 > naiveStats.EdgeCut {
		t.Errorf("SFC edgecut %d not clearly better than strided %d",
			sfcStats.EdgeCut, naiveStats.EdgeCut)
	}
}

func BenchmarkSFCPartitionK1536P768(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PartitionCubedSphere(Config{Ne: 16, NProcs: 768}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSFCParallelNe384 is the million-element regime benchmark: the
// full pipeline (mesh, parallel per-face curve build, contiguous
// cut) at Ne=384 — 884,736 elements onto 9,216 processors, 100x the paper's
// largest tabulated case. Tracked in BENCH_metis.json and gated in CI
// (cmd/benchgate, +/-20%).
func BenchmarkSFCParallelNe384(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PartitionCubedSphere(Config{Ne: 384, NProcs: 9216}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedSFCNe384 is the same million-element pipeline under a
// non-uniform weight vector: instead of the closed-form uniform cut points
// the curve is cut at B*, the least heaviest part any contiguous split can
// have — the weights gathered into visit order in the assignment buffer,
// a few probes, a backward pack at B* and a walk bounded by both, all
// sequential — before the same parallel fill. Tracked in BENCH_metis.json
// and gated in CI (cmd/benchgate, +/-20%); the gap to
// BenchmarkSFCParallelNe384 is the price of weighted splitting.
func BenchmarkWeightedSFCNe384(b *testing.B) {
	m, err := mesh.New(384)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := weights.Parse("cfl")
	if err != nil {
		b.Fatal(err)
	}
	w := spec.Generate(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionCubedSphere(Config{Ne: 384, NProcs: 9216, Weights: w}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWeightValidationTypedErrors pins the typed-error contract of the
// weighted split: a negative weight fails with *partition.WeightError whose
// index is the element id (not the scrambled curve rank), and an all-zero
// vector fails with *partition.ZeroTotalWeightError. Both must fail before
// any partition is produced.
func TestWeightValidationTypedErrors(t *testing.T) {
	const ne, k = 2, 6 * 2 * 2

	w := make([]int64, k)
	for i := range w {
		w[i] = 1
	}
	w[7] = -3
	var we *partition.WeightError
	if _, err := PartitionCubedSphere(Config{Ne: ne, NProcs: 2, Weights: w}); !errors.As(err, &we) {
		t.Fatalf("negative weight: got %v, want *partition.WeightError", err)
	} else if we.Index != 7 || we.Weight != -3 {
		t.Errorf("WeightError points at (%d, %d), want element (7, -3)", we.Index, we.Weight)
	}

	var ze *partition.ZeroTotalWeightError
	if _, err := PartitionCubedSphere(Config{Ne: ne, NProcs: 2, Weights: make([]int64, k)}); !errors.As(err, &ze) {
		t.Fatalf("all-zero weights: got %v, want *partition.ZeroTotalWeightError", err)
	} else if ze.N != k {
		t.Errorf("ZeroTotalWeightError.N = %d, want %d", ze.N, k)
	}
}
