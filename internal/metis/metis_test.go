package metis

import (
	"math/rand"
	"os"
	"testing"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/prng"
)

func meshGraph(t testing.TB, ne int) *graph.Graph {
	t.Helper()
	g, err := graph.FromMesh(mustMesh(t, ne), graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gridGraph builds a w x h 4-connected grid with unit weights.
func gridGraph(w, h int) *graph.Graph {
	b := graph.NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				_ = b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				_ = b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.Build()
}

func checkValid(t *testing.T, g *graph.Graph, p *partition.Partition, nparts int) {
	t.Helper()
	if p.NumParts() != nparts || p.NumVertices() != g.NumVertices() {
		t.Fatalf("partition shape wrong: %d parts %d vertices", p.NumParts(), p.NumVertices())
	}
	counts := p.Counts()
	for q, c := range counts {
		if c == 0 {
			t.Fatalf("part %d is empty", q)
		}
	}
}

func TestPartitionArgErrors(t *testing.T) {
	g := gridGraph(4, 4)
	if _, err := Partition(g, 0, Options{}); err == nil {
		t.Error("nparts=0 accepted")
	}
	if _, err := Partition(g, 17, Options{}); err == nil {
		t.Error("nparts > n accepted")
	}
	if _, err := Partition(g, 2, Options{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMethodString(t *testing.T) {
	if RB.String() != "RB" || KWay.String() != "KWAY" || KWayVol.String() != "TV" {
		t.Error("method names wrong")
	}
}

func TestSinglePart(t *testing.T) {
	g := gridGraph(3, 3)
	for _, m := range []Method{RB, KWay, KWayVol} {
		p, err := Partition(g, 1, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		st, _ := partition.ComputeStats(g, p)
		if st.EdgeCut != 0 {
			t.Errorf("%v: single part has cut %d", m, st.EdgeCut)
		}
	}
}

func TestRBGridBisection(t *testing.T) {
	g := gridGraph(8, 8)
	p, err := Partition(g, 2, Options{Method: RB})
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, g, p, 2)
	st, _ := partition.ComputeStats(g, p)
	// Perfect balance is achievable and required for a uniform grid.
	if st.MaxNelemd != 32 || st.MinNelemd != 32 {
		t.Errorf("bisection counts %d/%d, want 32/32", st.MinNelemd, st.MaxNelemd)
	}
	// The optimal cut of an 8x8 grid bisection is 8; multilevel FM should
	// get within 2x of optimal.
	if st.EdgeCut > 16 {
		t.Errorf("bisection cut %d, want <= 16", st.EdgeCut)
	}
}

func TestRBBalanceOnMesh(t *testing.T) {
	g := meshGraph(t, 8) // K=384
	for _, nparts := range []int{2, 4, 8, 16, 96} {
		p, err := Partition(g, nparts, Options{Method: RB})
		if err != nil {
			t.Fatalf("nparts=%d: %v", nparts, err)
		}
		checkValid(t, g, p, nparts)
		st, _ := partition.ComputeStats(g, p)
		// RB is "best for load balancing": the UBfactor band lets each
		// bisection keep up to 0.5% imbalance, so the spread stays within
		// a couple of elements of perfect.
		if st.MaxNelemd-st.MinNelemd > 3 {
			t.Errorf("nparts=%d: RB spread %d..%d", nparts, st.MinNelemd, st.MaxNelemd)
		}
	}
}

func TestKWayRespectsBalanceConstraint(t *testing.T) {
	g := meshGraph(t, 8)
	for _, nparts := range []int{4, 16, 48, 96} {
		for _, m := range []Method{KWay, KWayVol} {
			p, err := Partition(g, nparts, Options{Method: m})
			if err != nil {
				t.Fatalf("%v nparts=%d: %v", m, nparts, err)
			}
			checkValid(t, g, p, nparts)
			maxAllowed := maxPartWeight(int64(g.NumVertices()), nparts, 0.03, 1)
			st, _ := partition.ComputeStats(g, p)
			if int64(st.MaxNelemd) > maxAllowed {
				t.Errorf("%v nparts=%d: max part %d exceeds bound %d",
					m, nparts, st.MaxNelemd, maxAllowed)
			}
			_ = st
		}
	}
}

func TestPartitioningBeatsRandom(t *testing.T) {
	g := meshGraph(t, 8)
	nparts := 24
	rng := rand.New(rand.NewSource(7))
	randAssign := make([]int32, g.NumVertices())
	for i := range randAssign {
		randAssign[i] = int32(rng.Intn(nparts))
	}
	randPart, _ := partition.FromAssignment(randAssign, nparts)
	randStats, _ := partition.ComputeStats(g, randPart)
	for _, m := range []Method{RB, KWay, KWayVol} {
		p, err := Partition(g, nparts, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := partition.ComputeStats(g, p)
		if st.EdgeCut*2 > randStats.EdgeCut {
			t.Errorf("%v edgecut %d not clearly better than random %d",
				m, st.EdgeCut, randStats.EdgeCut)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := meshGraph(t, 4)
	for _, m := range []Method{RB, KWay, KWayVol} {
		a, err := Partition(g, 12, Options{Method: m, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(g, 12, Options{Method: m, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if a.Part(v) != b.Part(v) {
				t.Fatalf("%v: vertex %v differs between runs with same seed", m, v)
			}
		}
	}
}

func TestDifferentSeedsStillValid(t *testing.T) {
	g := meshGraph(t, 4)
	for seed := int64(1); seed <= 5; seed++ {
		p, err := Partition(g, 8, Options{Method: KWay, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkValid(t, g, p, 8)
	}
}

func TestWeightedVertices(t *testing.T) {
	// Two heavy vertices must land in different parts for balance.
	b := graph.NewBuilder(6)
	b.SetVertexWeight(0, 10)
	b.SetVertexWeight(5, 10)
	for i := 0; i < 5; i++ {
		_ = b.AddEdge(i, i+1, 1)
	}
	g := b.Build()
	p, err := Partition(g, 2, Options{Method: RB})
	if err != nil {
		t.Fatal(err)
	}
	if p.Part(0) == p.Part(5) {
		t.Error("heavy vertices in same part; balance impossible")
	}
	w := make([]int64, 2)
	for v, q := range p.Assignment() {
		w[q] += int64(g.VertexWeight(v))
	}
	if d := w[0] - w[1]; d < -2 || d > 2 {
		t.Errorf("weighted split %v too uneven", w)
	}
}

func TestCoarsenPreservesTotals(t *testing.T) {
	g := fromGraph(gridGraph(10, 10))
	rng := prng.New(3)
	levels, coarsest := coarsen(g, 10, rng, getWS(), nil)
	if len(levels) == 0 {
		t.Fatal("no coarsening happened on a 100-vertex grid")
	}
	if coarsest.totalVWgt() != g.totalVWgt() {
		t.Errorf("coarse total weight %d != fine %d", coarsest.totalVWgt(), g.totalVWgt())
	}
	// Each level must shrink and keep symmetric adjacency.
	prev := g.n()
	for _, lv := range levels {
		if lv.coarse.n() >= prev {
			t.Errorf("level did not shrink: %d -> %d", prev, lv.coarse.n())
		}
		prev = lv.coarse.n()
		checkSymmetric(t, lv.coarse)
		// cmap must be a valid surjection.
		seen := make([]bool, lv.coarse.n())
		for _, c := range lv.cmap {
			if c < 0 || int(c) >= lv.coarse.n() {
				t.Fatal("cmap out of range")
			}
			seen[c] = true
		}
		for c, s := range seen {
			if !s {
				t.Fatalf("coarse vertex %d has no fine members", c)
			}
		}
	}
}

func checkSymmetric(t *testing.T, g *wgraph) {
	t.Helper()
	for v := int32(0); v < int32(g.n()); v++ {
		adj, wgt := g.deg(v)
		for i, u := range adj {
			if u == v {
				t.Fatalf("self-loop on coarse vertex %d", v)
			}
			// Find reverse edge.
			radj, rwgt := g.deg(u)
			found := false
			for j, w := range radj {
				if w == v {
					if rwgt[j] != wgt[i] {
						t.Fatalf("asymmetric weight (%d,%d): %d vs %d", v, u, wgt[i], rwgt[j])
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) has no reverse", v, u)
			}
		}
	}
}

// Coarsening must preserve the total exterior edge weight of any vertex
// subset that maps cleanly... simpler invariant: total edge weight halves
// only by removing matched internal edges.
func TestContractEdgeWeightConservation(t *testing.T) {
	g := fromGraph(gridGraph(6, 6))
	rng := prng.New(5)
	ws := getWS()
	cmap, nc := heavyEdgeMatch(g, rng, ws)
	coarse := contract(g, cmap, nc, ws)
	// Sum of coarse edge weights = sum of fine edge weights between
	// different coarse vertices.
	var fineCross, coarseTotal int64
	for v := int32(0); v < int32(g.n()); v++ {
		adj, wgt := g.deg(v)
		for i, u := range adj {
			if cmap[u] != cmap[v] {
				fineCross += int64(wgt[i])
			}
		}
	}
	for v := int32(0); v < int32(coarse.n()); v++ {
		_, wgt := coarse.deg(v)
		for _, w := range wgt {
			coarseTotal += int64(w)
		}
	}
	if fineCross != coarseTotal {
		t.Errorf("cross edge weight %d != coarse total %d", fineCross, coarseTotal)
	}
}

func TestFMImprovesBadBisection(t *testing.T) {
	gr := gridGraph(8, 8)
	g := fromGraph(gr)
	// Pathological start: odd/even interleaved sides (maximal cut).
	side := make([]int8, g.n())
	for i := range side {
		side[i] = int8(i % 2)
	}
	// The cut as the stats sweep counts it, independently of FM's gains.
	cutOf := func() int64 {
		assign := make([]int32, len(side))
		for v, s := range side {
			assign[v] = int32(s)
		}
		p, err := partition.FromAssignment(assign, 2)
		if err != nil {
			t.Fatal(err)
		}
		st, err := partition.ComputeStats(gr, p)
		if err != nil {
			t.Fatal(err)
		}
		return st.EdgeCut
	}
	before := cutOf()
	reported := fmRefine(g, side, 32, 0, 10, getWS(), nil)
	after := cutOf()
	if after >= before {
		t.Fatalf("FM did not improve cut: %d -> %d", before, after)
	}
	if reported != after {
		t.Errorf("fmRefine reports cut %d, the refined bisection has %d", reported, after)
	}
	if after > 16 {
		t.Errorf("FM left cut %d, want <= 16", after)
	}
	// Balance preserved.
	var w0 int64
	for v, s := range side {
		if s == 0 {
			w0 += int64(g.vwgt[v])
		}
	}
	if w0 < 31 || w0 > 33 {
		t.Errorf("FM broke balance: w0=%d", w0)
	}
}

func TestMaxPartWeight(t *testing.T) {
	// The absolute slack of one heaviest vertex always applies (METIS
	// semantics for indivisible vertices).
	if got := maxPartWeight(100, 10, 0.0, 1); got != 11 {
		t.Errorf("unit slack: %d", got)
	}
	if got := maxPartWeight(100, 10, 0.2, 1); got != 12 {
		t.Errorf("20%%: %d", got)
	}
	if got := maxPartWeight(100, 10, 0.0, 5); got != 15 {
		t.Errorf("heavy vertex slack: %d", got)
	}
	// Never below ceil(avg).
	if got := maxPartWeight(101, 100, 0.0, 1); got != 2 {
		t.Errorf("ceil: %d", got)
	}
}

func TestKWayOnPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("K=1536 partitioning in short mode")
	}
	g := meshGraph(t, 16) // K=1536
	for _, m := range []Method{RB, KWay, KWayVol} {
		p, err := Partition(g, 768, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		checkValid(t, g, p, 768)
		st, _ := partition.ComputeStats(g, p)
		t.Logf("%v: %v", m, st)
		if st.MaxNelemd > 4 {
			t.Errorf("%v: some processor got %d elements (avg 2)", m, st.MaxNelemd)
		}
	}
}

// benchPartition is the shared body of the partitioner benchmarks: it
// partitions the cubed-sphere graph for the given resolution into nparts
// with the given method. The ns/op trajectory of these benchmarks is
// recorded in BENCH_metis.json at the repo root; regenerate with
//
//	go test ./internal/metis -run '^$' -bench 'K384P96|K13824|K55296' -benchtime 10x
//
// and append a new entry.
func benchPartition(b *testing.B, ne, nparts int, m Method) {
	b.Helper()
	g := meshGraph(b, ne)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, nparts, Options{Method: m}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- paper-scale benchmarks: K=384 elements (Ne=8) on 96 processors ---

func BenchmarkRBK384P96(b *testing.B)      { benchPartition(b, 8, 96, RB) }
func BenchmarkKWayK384P96(b *testing.B)    { benchPartition(b, 8, 96, KWay) }
func BenchmarkKWayVolK384P96(b *testing.B) { benchPartition(b, 8, 96, KWayVol) }

// --- scale benchmarks: production-size meshes where partitioning is an
// online cost, not one-shot preprocessing. Ne=48 and Ne=96 are
// Hilbert-Peano-capable (2^n * 3^m) resolutions with K=13824 and K=55296
// elements respectively. ---

func BenchmarkRBK13824P768(b *testing.B)    { benchPartition(b, 48, 768, RB) }
func BenchmarkKWayK13824P768(b *testing.B)  { benchPartition(b, 48, 768, KWay) }
func BenchmarkKWayK13824P1536(b *testing.B) { benchPartition(b, 48, 1536, KWay) }
func BenchmarkRBK55296P3072(b *testing.B)   { benchPartition(b, 96, 3072, RB) }
func BenchmarkKWayK55296P3072(b *testing.B) { benchPartition(b, 96, 3072, KWay) }

// mustMesh builds a cubed-sphere mesh or fails the test.
func mustMesh(tb testing.TB, ne int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkRBK1536P12288 is the 14-million-element stress case: recursive
// bisection of the Ne=1536 dual graph (K=14,155,776) into 12,288 parts.
// Multiple minutes of work on one core, so it only runs when SCALE_BENCH=1
// (see TESTING.md, "Scale tier"); its BENCH_metis.json entry is refreshed by
// hand, not by the CI gate.
func BenchmarkRBK1536P12288(b *testing.B) {
	if os.Getenv("SCALE_BENCH") == "" {
		b.Skip("set SCALE_BENCH=1 to run the 14M-element benchmark")
	}
	m, err := mesh.New(1536)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, 12288, Options{Method: RB}); err != nil {
			b.Fatal(err)
		}
	}
}
