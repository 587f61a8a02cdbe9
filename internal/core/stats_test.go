package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
)

// weightCases are the load models of the stats tests: the two physics
// proxies, unit cost, and a raw vector in which every third element is
// inactive (weight zero).
var weightCases = map[string]func(t *testing.T, p *core.Problem){
	"uniform": func(*testing.T, *core.Problem) {},
	"cfl":     func(t *testing.T, p *core.Problem) { setSpec(t, p, "cfl") },
	"hv":      func(t *testing.T, p *core.Problem) { setSpec(t, p, "hv:amp=16,m=6") },
	"zeros": func(t *testing.T, p *core.Problem) {
		w := make([]int64, p.Mesh().NumElems())
		for e := range w {
			w[e] = int64(e % 3)
		}
		if err := p.SetWeights(w); err != nil {
			t.Fatal(err)
		}
	},
}

func setSpec(t *testing.T, p *core.Problem, spec string) {
	t.Helper()
	if err := p.SetWeightSpec(spec); err != nil {
		t.Fatal(err)
	}
}

// TestStatsViewMatchesGraph: the stats a Problem computes over the on-demand
// mesh view (no graph built) equal, field for field, the ones it computes
// over the CSR graph, and the independent oracle agrees with both — on the
// cuts the methods produce, and on scattered assignments no method would
// (every row cut, empty parts, parts in many pieces), which reach the
// accounting branches a curve cut leaves cold.
func TestStatsViewMatchesGraph(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		k := 6 * ne * ne
		cases := map[string]func(t *testing.T, csr *core.Problem) *partition.Partition{}
		for _, method := range []string{"sfc", "serpentine", "kway"} {
			cases[method] = func(t *testing.T, csr *core.Problem) *partition.Partition {
				part, err := core.Run(context.Background(), method, csr, max(2, k/8), 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				return part
			}
		}
		scattered := func(nparts int, assign func(rng *rand.Rand, e int) int) func(*testing.T, *core.Problem) *partition.Partition {
			return func(t *testing.T, _ *core.Problem) *partition.Partition {
				rng := rand.New(rand.NewSource(int64(ne)<<20 | int64(nparts)))
				part := partition.New(k, nparts)
				for e := 0; e < k; e++ {
					part.SetPart(e, assign(rng, e))
				}
				return part
			}
		}
		for _, nparts := range []int{1, 2, k} {
			cases[fmt.Sprintf("scattered/p%d", nparts)] = scattered(nparts, func(rng *rand.Rand, _ int) int { return rng.Intn(nparts) })
		}
		cases["scattered/empty"] = scattered(5, func(rng *rand.Rand, _ int) int { return rng.Intn(4) }) // part 4 gets nothing
		// Part 0 is the middle element of faces 0, 1 and 2 and nothing else:
		// from Ne=3 on these are face-interior and pairwise non-adjacent.
		cases["scattered/split"] = scattered(3, func(rng *rand.Rand, e int) int {
			if e < 3*ne*ne && e%(ne*ne) == (ne/2)*ne+ne/2 {
				return 0
			}
			return 1 + rng.Intn(2)
		})
		for cname, makePart := range cases {
			for wname, setWeights := range weightCases {
				t.Run(fmt.Sprintf("ne%d/%s/%s", ne, cname, wname), func(t *testing.T) {
					viewed, err := core.NewProblem(ne) // never asked for its graph
					if err != nil {
						t.Fatal(err)
					}
					setWeights(t, viewed)
					csr, _ := core.NewProblem(ne)
					setWeights(t, csr)
					g, err := csr.Graph()
					if err != nil {
						t.Fatal(err)
					}
					part := makePart(t, csr)
					fromView, err := viewed.Stats(part)
					if err != nil {
						t.Fatal(err)
					}
					fromGraph, err := csr.Stats(part)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fromView, fromGraph) {
						t.Errorf("view stats  %+v\ngraph stats %+v", fromView, fromGraph)
					}
					want, err := partition.ComputeStatsWeighted(g, part, csr.Weights())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fromGraph, want) {
						t.Errorf("Problem.Stats %+v\nComputeStatsWeighted %+v", fromGraph, want)
					}
					if err := check.CrossCheckStats(g, part); err != nil {
						t.Error(err)
					}
					if cname == "scattered/empty" && fromView.EmptyParts < 1 {
						t.Errorf("EmptyParts = %d with a part that got nothing", fromView.EmptyParts)
					}
					if cname == "scattered/split" && ne >= 3 && fromView.MaxComponents < 3 {
						t.Errorf("MaxComponents = %d with a part in three pieces", fromView.MaxComponents)
					}
				})
			}
		}
	}
}

// TestStatsUsesCallerGraph: a graph handed to ProblemFrom is the one Stats
// reads even when no method asked for it, so its (non-unit) vertex weights
// count exactly as they did when every caller passed the graph explicitly.
func TestStatsUsesCallerGraph(t *testing.T) {
	m, err := mesh.New(8)
	if err != nil {
		t.Fatal(err)
	}
	vw := make([]int32, m.NumElems())
	for v := range vw {
		vw[v] = int32(1 + v%5)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexWeights(vw); err != nil {
		t.Fatal(err)
	}
	prob, err := core.ProblemFrom(8, m, g)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.Run(context.Background(), "sfc", prob, 24, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prob.Stats(part)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partition.ComputeStats(g, part)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Stats %+v\nwant  %+v", got, want)
	}
	if got.LBNelemd == 0 {
		t.Error("LBNelemd is 0: the caller graph's vertex weights were ignored (the cut is count-balanced)")
	}
}

// TestStatsViewDeterministic: on-demand-view stats do not depend on
// GOMAXPROCS (the weight generators and curve builds underneath are
// parallel). Part of the -race list.
func TestStatsViewDeterministic(t *testing.T) {
	run := func(procs int) partition.Stats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		prob := newProblem(t, 24, "hv:amp=16,m=6")
		part, err := core.Run(context.Background(), "sfc", prob, 96, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := prob.Stats(part)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
		t.Errorf("GOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", one, four)
	}
}
