package partition

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
)

func TestLoadBalance(t *testing.T) {
	cases := []struct {
		s    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 0},
		{[]float64{2, 2, 2, 2}, 0},
		{[]float64{4, 2, 2}, (4.0 - 8.0/3.0) / 4.0},
		{[]float64{0, 0}, 0},
		{[]float64{10, 0}, 0.5},
	}
	for _, c := range cases {
		if got := LoadBalance(c.s); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LoadBalance(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestLoadBalanceIntVariants(t *testing.T) {
	if LoadBalance([]int{4, 2, 2}) != LoadBalance([]float64{4, 2, 2}) {
		t.Error("LoadBalance over []int mismatch")
	}
	if LoadBalance([]int64{4, 2, 2}) != LoadBalance([]float64{4, 2, 2}) {
		t.Error("LoadBalance over []int64 mismatch")
	}
}

// Property: LB is always in [0, 1) for positive inputs and 0 iff the set is
// uniform.
func TestLoadBalanceRangeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]float64, len(raw))
		uniform := true
		for i, v := range raw {
			s[i] = float64(v%32) + 1
			if s[i] != s[0] {
				uniform = false
			}
		}
		lb := LoadBalance(s)
		if lb < 0 || lb >= 1 {
			return false
		}
		return (lb == 0) == uniform
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromAssignment(t *testing.T) {
	p, err := FromAssignment([]int32{0, 1, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 2 || p.NumVertices() != 4 {
		t.Error("sizes wrong")
	}
	if p.Part(1) != 1 || p.Part(3) != 0 {
		t.Error("parts wrong")
	}
	c := p.Counts()
	if c[0] != 2 || c[1] != 2 {
		t.Errorf("counts = %v", c)
	}
	if _, err := FromAssignment([]int32{0, 2}, 2); err == nil {
		t.Error("out-of-range part accepted")
	}
	if _, err := FromAssignment([]int32{0}, 0); err == nil {
		t.Error("nparts=0 accepted")
	}
}

// SplitContiguous splits positions 0..len(weights)-1 themselves: the
// identity-order entry to SplitAlong, the one split kernel.
func SplitContiguous(weights []int64, nparts int) ([]int32, error) {
	return SplitAlong(identityOrder(len(weights)), nparts, weights)
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func TestSplitContiguousUniform(t *testing.T) {
	for _, c := range []struct{ n, parts int }{
		{8, 2}, {8, 4}, {9, 3}, {10, 3}, {384, 96}, {486, 27}, {7, 7}, {5, 1},
	} {
		w := make([]int64, c.n)
		for i := range w {
			w[i] = 1
		}
		assign, err := SplitContiguous(w, c.parts)
		if err != nil {
			t.Fatalf("Split(%d,%d): %v", c.n, c.parts, err)
		}
		checkContiguous(t, assign, c.parts)
		// Uniform: parts differ by at most one item.
		counts := make([]int, c.parts)
		for _, p := range assign {
			counts[p]++
		}
		min, max := counts[0], counts[0]
		for _, v := range counts {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max-min > 1 {
			t.Errorf("n=%d parts=%d: count spread %d..%d", c.n, c.parts, min, max)
		}
		// When parts divides n the split must be perfect.
		if c.n%c.parts == 0 && max != min {
			t.Errorf("n=%d parts=%d: expected perfect split, got %v", c.n, c.parts, counts)
		}
	}
}

func checkContiguous(t *testing.T, assign []int32, parts int) {
	t.Helper()
	seen := make([]bool, parts)
	last := int32(-1)
	for i, p := range assign {
		if p < last {
			t.Fatalf("assignment not monotone at %d: %v after %v", i, p, last)
		}
		if p != last {
			if seen[p] {
				t.Fatalf("part %d appears in two runs", p)
			}
			seen[p] = true
			last = p
		}
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("part %d empty", p)
		}
	}
}

func TestSplitContiguousWeighted(t *testing.T) {
	w := []int64{10, 1, 1, 1, 1, 1, 1, 10}
	assign, err := SplitContiguous(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkContiguous(t, assign, 2)
	var w0, w1 int64
	for i, p := range assign {
		if p == 0 {
			w0 += w[i]
		} else {
			w1 += w[i]
		}
	}
	if w0 != 13 || w1 != 13 {
		t.Errorf("weighted split %d/%d, want 13/13", w0, w1)
	}
}

func TestSplitContiguousErrors(t *testing.T) {
	if _, err := SplitContiguous([]int64{1, 2}, 3); err == nil {
		t.Error("more parts than items accepted")
	}
	if _, err := SplitContiguous([]int64{1}, 0); err == nil {
		t.Error("nparts=0 accepted")
	}
	// Individual zero weights are legal (inactive elements) as long as the
	// total is positive; the typed errors cover the two illegal shapes.
	if assign, err := SplitContiguous([]int64{1, 0}, 2); err != nil {
		t.Errorf("zero weight rejected: %v", err)
	} else if assign[0] != 0 || assign[1] != 1 {
		t.Errorf("zero-weight split = %v, want [0 1]", assign)
	}
	var we *WeightError
	if _, err := SplitContiguous([]int64{1, -2}, 2); !errors.As(err, &we) {
		t.Errorf("negative weight: got %v, want *WeightError", err)
	}
	var ze *ZeroTotalWeightError
	if _, err := SplitContiguous([]int64{0, 0}, 2); !errors.As(err, &ze) {
		t.Errorf("all-zero weights: got %v, want *ZeroTotalWeightError", err)
	}
}

// Property: SplitContiguous always yields monotone, non-empty parts and a
// max part weight within one max single weight of the ideal average.
func TestSplitContiguousProperty(t *testing.T) {
	f := func(raw []uint8, rawParts uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]int64, len(raw))
		var total, maxW int64
		for i, v := range raw {
			w[i] = int64(v%16) + 1
			total += w[i]
			if w[i] > maxW {
				maxW = w[i]
			}
		}
		parts := 1 + int(rawParts)%len(w)
		assign, err := SplitContiguous(w, parts)
		if err != nil {
			return false
		}
		sums := make([]int64, parts)
		last := int32(0)
		for i, p := range assign {
			if p < last {
				return false
			}
			last = p
			sums[p] += w[i]
		}
		var maxSum int64
		for _, s := range sums {
			if s == 0 {
				return false
			}
			if s > maxSum {
				maxSum = s
			}
		}
		// The optimal contiguous split is within one max-weight item of
		// the ideal average: packing each part up to avg+maxW leaves no
		// weight for a part past the last.
		avg := float64(total) / float64(parts)
		return float64(maxSum) <= avg+float64(maxW)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildMeshGraph(t *testing.T, ne int) *graph.Graph {
	t.Helper()
	g, err := graph.FromMesh(mustMesh(t, ne), graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComputeStatsTwoParts(t *testing.T) {
	// Tiny handmade graph: square 0-1-2-3 with unit weights.
	b := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p, _ := FromAssignment([]int32{0, 0, 1, 1}, 2)
	st, err := ComputeStats(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeCut != 2 || st.EdgeCutUnweighted != 2 {
		t.Errorf("edgecut = %d/%d, want 2/2", st.EdgeCut, st.EdgeCutUnweighted)
	}
	if st.CutVertices != 4 {
		t.Errorf("cut vertices = %d, want 4", st.CutVertices)
	}
	if st.TotalCommVolume != 4 {
		t.Errorf("tcv = %d, want 4", st.TotalCommVolume)
	}
	if st.LBNelemd != 0 {
		t.Errorf("LB(nelemd) = %v, want 0", st.LBNelemd)
	}
	if st.LBSpcv != 0 {
		t.Errorf("LB(spcv) = %v, want 0 (each part sends 2)", st.LBSpcv)
	}
	if st.MaxNelemd != 2 || st.MinNelemd != 2 {
		t.Error("nelemd extremes wrong")
	}
}

func TestComputeStatsSinglePart(t *testing.T) {
	g := buildMeshGraph(t, 2)
	p := New(g.NumVertices(), 1)
	st, err := ComputeStats(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.EdgeCut != 0 || st.TotalCommVolume != 0 || st.CutVertices != 0 {
		t.Errorf("single part should have zero cut: %+v", st)
	}
	if st.LBNelemd != 0 || st.LBSpcv != 0 {
		t.Error("single part should be perfectly balanced")
	}
}

func TestComputeStatsMismatch(t *testing.T) {
	g := buildMeshGraph(t, 2)
	p := New(5, 2)
	if _, err := ComputeStats(g, p); err == nil {
		t.Error("vertex count mismatch accepted")
	}
}

// Property: edgecut of a random partition equals a brute-force recount, and
// imbalanced partitions have higher LB than balanced ones.
func TestComputeStatsMatchesBruteForce(t *testing.T) {
	g := buildMeshGraph(t, 3)
	n := g.NumVertices()
	f := func(seed uint32) bool {
		parts := 2 + int(seed)%6
		p := New(n, parts)
		s := seed
		for v := 0; v < n; v++ {
			s = s*1664525 + 1013904223
			p.SetPart(v, int(s>>16)%parts)
		}
		// Some random partitions may leave a part empty; Stats must still
		// be computable.
		st, err := ComputeStats(g, p)
		if err != nil {
			return false
		}
		var cut int64
		for v := 0; v < n; v++ {
			adj, wts := g.Adj(v), g.AdjWeights(v)
			for i, u := range adj {
				if int(u) > v && p.Part(int(u)) != p.Part(v) {
					cut += int64(wts[i])
				}
			}
		}
		return st.EdgeCut == cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsString(t *testing.T) {
	g := buildMeshGraph(t, 2)
	p := New(g.NumVertices(), 2)
	for v := 0; v < g.NumVertices()/2; v++ {
		p.SetPart(v, 1)
	}
	st, _ := ComputeStats(g, p)
	if s := st.String(); s == "" {
		t.Error("empty stats string")
	}
}

// Empty parts are degenerate K-way outputs (idle processors): they must be
// counted and reported, not silently folded into MaxComponents' floor of 1.
func TestComputeStatsEmptyParts(t *testing.T) {
	b := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	// 4 parts, but every vertex lands in parts 0 and 1: parts 2, 3 empty.
	p, err := FromAssignment([]int32{0, 0, 1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStats(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.EmptyParts != 2 {
		t.Errorf("EmptyParts = %d, want 2", st.EmptyParts)
	}
	if !strings.Contains(st.String(), "empty=2") {
		t.Errorf("String() does not report empty parts: %q", st.String())
	}
	// A fully covered partition reports zero empty parts.
	p2, err := FromAssignment([]int32{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := ComputeStats(g, p2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.EmptyParts != 0 {
		t.Errorf("EmptyParts = %d, want 0", st2.EmptyParts)
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

// TestSplitAlong: the id-indexed assignment is SplitContiguous' segment
// labels scattered through the visit order, with weights read and validated
// in id space.
func TestSplitAlong(t *testing.T) {
	order := []int{3, 0, 4, 1, 5, 2} // rank -> id
	weights := []int64{1, 1, 1, 4, 1, 1}
	got, err := SplitAlong(order, 2, weights)
	if err != nil {
		t.Fatal(err)
	}
	inOrder := make([]int64, len(order))
	for rank, id := range order {
		inOrder[rank] = weights[id]
	}
	seg, err := SplitContiguous(inOrder, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rank, id := range order {
		if got[id] != seg[rank] {
			t.Errorf("id %d (rank %d) in part %d, want %d", id, rank, got[id], seg[rank])
		}
	}
	uniform, err := SplitAlong(order, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for rank, id := range order {
		if want := int32(rank * 3 / len(order)); uniform[id] != want {
			t.Errorf("uniform: id %d in part %d, want %d", id, uniform[id], want)
		}
	}
	var we *WeightError
	if _, err := SplitAlong(order, 2, []int64{1, 1, 1, 1, -2, 1}); !errors.As(err, &we) || we.Index != 4 {
		t.Errorf("negative weight at id 4: %v", err)
	}
	if _, err := SplitAlong(order, 2, []int64{1, 2}); err == nil {
		t.Error("short weight vector accepted")
	}
	if _, err := SplitAlong(order, 7, nil); err == nil {
		t.Error("more parts than items accepted")
	}
}
