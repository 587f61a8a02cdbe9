package metis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfccube/internal/graph"
	"sfccube/internal/partition"
)

// randomConnectedGraph builds a connected graph on n vertices: a random
// spanning tree plus extra random edges, with random small weights.
func randomConnectedGraph(n int, extraEdges int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		_ = b.AddEdge(u, v, int32(rng.Intn(7)+1))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = b.AddEdge(u, v, int32(rng.Intn(7)+1))
		}
	}
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, int32(rng.Intn(4)+1))
	}
	return b.Build()
}

// Property: every method produces a valid partition (no empty parts, all
// vertices assigned) on arbitrary connected graphs with arbitrary weights.
func TestPartitionValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64, rawN, rawParts, rawExtra uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(rawN)%60
		nparts := 2 + int(rawParts)%(n/2)
		g := randomConnectedGraph(n, int(rawExtra)%40, rng)
		if err := g.Validate(); err != nil {
			return false
		}
		for _, m := range []Method{RB, KWay, KWayVol} {
			p, err := Partition(g, nparts, Options{Method: m, Seed: seed&0xffff + 1})
			if err != nil {
				return false
			}
			counts := p.Counts()
			if len(counts) != nparts {
				return false
			}
			for _, c := range counts {
				if c == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the weighted edgecut of every method never exceeds the total
// edge weight, and is zero when nparts == 1.
func TestEdgecutBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(40)
		g := randomConnectedGraph(n, 30, rng)
		var totalW int64
		for v := 0; v < n; v++ {
			for _, w := range g.AdjWeights(v) {
				totalW += int64(w)
			}
		}
		totalW /= 2
		for _, m := range []Method{RB, KWay, KWayVol} {
			p, err := Partition(g, 4, Options{Method: m, Seed: int64(trial + 1)})
			if err != nil {
				t.Fatal(err)
			}
			st, err := partition.ComputeStats(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if st.EdgeCut < 0 || st.EdgeCut > totalW {
				t.Fatalf("%v: edgecut %d outside [0, %d]", m, st.EdgeCut, totalW)
			}
		}
	}
}

// A bisection band narrower than one vertex (rbImbalance * 36 = 0.18) leaves
// no slack: a uniform even-sized graph must split into exact halves.
func TestExactBisectionMode(t *testing.T) {
	g := gridGraph(6, 6)
	p, err := Partition(g, 2, Options{Method: RB})
	if err != nil {
		t.Fatal(err)
	}
	c := p.Counts()
	if c[0] != 18 || c[1] != 18 {
		t.Errorf("sub-vertex band counts %v, want 18/18", c)
	}
}
