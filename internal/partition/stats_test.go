package partition

import (
	"errors"
	"testing"
)

// lcgWeights is a deterministic non-uniform weight stream for the stats
// tests: values in [0, 32) with an occasional zero (inactive element).
func lcgWeights(n int, seed uint64) []int64 {
	w := make([]int64, n)
	x := seed*6364136223846793005 + 1442695040888963407
	for i := range w {
		x = x*6364136223846793005 + 1442695040888963407
		w[i] = int64((x >> 33) % 32)
	}
	w[0] = 1 // guarantee a positive total
	return w
}

// TestComputeStatsWeightedIndependentRecount checks the weighted fields
// against a from-scratch recomputation off the raw assignment: PartWeights
// must be the exact per-part weight totals and LBWeighted equation (1) over
// them, regardless of how the partition was produced.
func TestComputeStatsWeightedIndependentRecount(t *testing.T) {
	g := buildMeshGraph(t, 4)
	k := g.NumVertices()
	w := lcgWeights(k, 7)

	// A deliberately lopsided partition, so the weighted and unweighted
	// balances genuinely differ.
	p := New(k, 5)
	for v := 0; v < k; v++ {
		p.SetPart(v, (v*v)%5)
	}
	st, err := ComputeStatsWeighted(g, p, w)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]int64, 5)
	for v := 0; v < k; v++ {
		totals[p.Part(v)] += w[v]
	}
	for q, want := range totals {
		if st.PartWeights[q] != want {
			t.Errorf("part %d: PartWeights=%d, recount %d", q, st.PartWeights[q], want)
		}
	}
	if lb := LoadBalance(totals); st.LBWeighted != lb {
		t.Errorf("LBWeighted=%g, recount %g", st.LBWeighted, lb)
	}
	// The weight vector is the one load: LBNelemd follows it, and the
	// communication metrics are untouched by it.
	if st.LBNelemd != st.LBWeighted {
		t.Errorf("LBNelemd=%g, want LBWeighted=%g under an explicit weight vector", st.LBNelemd, st.LBWeighted)
	}
	plain, err := ComputeStats(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeCut != plain.EdgeCut || st.TotalCommVolume != plain.TotalCommVolume {
		t.Error("weighted stats changed the communication metrics")
	}
}

// TestComputeStatsWeightedAllEqual pins the invariant that an all-equal
// weight vector is indistinguishable from the unweighted computation:
// LBWeighted collapses to LBNelemd and PartWeights is the element count
// scaled by the common weight.
func TestComputeStatsWeightedAllEqual(t *testing.T) {
	g := buildMeshGraph(t, 4)
	k := g.NumVertices()
	const c = 7
	w := make([]int64, k)
	for i := range w {
		w[i] = c
	}
	p := New(k, 6)
	for v := 0; v < k; v++ {
		p.SetPart(v, v%6)
	}
	st, err := ComputeStatsWeighted(g, p, w)
	if err != nil {
		t.Fatal(err)
	}
	if st.LBWeighted != st.LBNelemd {
		t.Errorf("all-equal weights: LBWeighted=%g != LBNelemd=%g", st.LBWeighted, st.LBNelemd)
	}
	for q, n := range st.Nelemd {
		if st.PartWeights[q] != int64(n)*c {
			t.Errorf("part %d: PartWeights=%d, want %d elements * %d", q, st.PartWeights[q], n, c)
		}
	}
	// And with no weight vector at all, LBWeighted still mirrors LBNelemd
	// (nil means uniform).
	st0, err := ComputeStatsWeighted(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st0.LBWeighted != st0.LBNelemd || st0.PartWeights != nil {
		t.Error("nil weights: want LBWeighted == LBNelemd and nil PartWeights")
	}
}

// TestComputeStatsWeightedErrors pins the typed-error contract on the stats
// side: length mismatch, negative entries and an all-zero vector are all
// rejected before any metric is computed.
func TestComputeStatsWeightedErrors(t *testing.T) {
	g := buildMeshGraph(t, 2)
	k := g.NumVertices()
	p := New(k, 2)
	for v := 0; v < k; v++ {
		p.SetPart(v, v%2)
	}
	if _, err := ComputeStatsWeighted(g, p, []int64{1, 2, 3}); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := make([]int64, k)
	for i := range bad {
		bad[i] = 1
	}
	bad[k/2] = -4
	var we *WeightError
	if _, err := ComputeStatsWeighted(g, p, bad); !errors.As(err, &we) {
		t.Errorf("negative weight: got %v, want *WeightError", err)
	} else if we.Index != k/2 || we.Weight != -4 {
		t.Errorf("WeightError points at (%d, %d), want (%d, -4)", we.Index, we.Weight, k/2)
	}
	var ze *ZeroTotalWeightError
	if _, err := ComputeStatsWeighted(g, p, make([]int64, k)); !errors.As(err, &ze) {
		t.Errorf("all-zero weights: got %v, want *ZeroTotalWeightError", err)
	}
}

// TestComponentsMatchFloodFill holds the union-find component count of
// StatsOver to an independent per-part flood fill on scattered partitions,
// where parts fragment into many pieces, and on a contiguous block split.
func TestComponentsMatchFloodFill(t *testing.T) {
	g := buildMeshGraph(t, 6)
	n := g.NumVertices()
	for seed := uint64(0); seed < 8; seed++ {
		nparts := 2 + int(seed)*3
		p := New(n, nparts)
		for v, r := range lcgWeights(n, seed) {
			if seed == 0 {
				p.SetPart(v, v*nparts/n)
			} else {
				p.SetPart(v, int(r)%nparts)
			}
		}
		comp := make([]int, nparts)
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			if seen[v] {
				continue
			}
			comp[p.Part(v)]++
			seen[v] = true
			for stack := []int32{int32(v)}; len(stack) > 0; {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range g.Adj(int(u)) {
					if !seen[w] && p.Part(int(w)) == p.Part(v) {
						seen[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		wantMax, wantDisc := 1, 0
		for _, c := range comp {
			wantMax = max(wantMax, c)
			if c > 1 {
				wantDisc++
			}
		}
		st, err := ComputeStats(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxComponents != wantMax || st.DisconnectedParts != wantDisc {
			t.Errorf("seed %d: MaxComponents=%d DisconnectedParts=%d, flood fill says %d and %d",
				seed, st.MaxComponents, st.DisconnectedParts, wantMax, wantDisc)
		}
	}
}
