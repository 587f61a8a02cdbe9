package metis_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/metis"
	"sfccube/internal/weights"
)

// TestViewMatchesGraph holds the method table's multilevel rows, which
// stream the finest level off the Problem's mesh view into metis's pooled
// block, to PartitionCtx over the heap graph graph.FromMesh builds with the
// same vertex weights: every method, size, weighting, part count and seed
// gives the same assignment. The poison hook is on (TestMain in
// arena_test.go), so a level-0 block read after it went back to the pool
// changes an assignment.
func TestViewMatchesGraph(t *testing.T) {
	methods := map[string]metis.Method{"rb": metis.RB, "kway": metis.KWay, "tv": metis.KWayVol}
	for _, ne := range []int{1, 2, 3, 4, 6, 8, 16} {
		for _, spec := range []string{"", "cfl", "hv:amp=16,m=6"} {
			prob, err := core.NewProblem(ne)
			if err != nil {
				t.Fatal(err)
			}
			if err := prob.SetWeightSpec(spec); err != nil {
				t.Fatal(err)
			}
			g, err := graph.FromMesh(prob.Mesh(), graph.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if w := prob.Weights(); w != nil {
				w32, err := weights.Int32(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.SetVertexWeights(w32); err != nil {
					t.Fatal(err)
				}
			}
			k := g.NumVertices()
			for name, method := range methods {
				for _, nparts := range []int{2, k/3 + 1, k/2 + 1} {
					for _, seed := range []int64{1, 7} {
						what := fmt.Sprintf("%s/ne%d/%q/p%d/seed%d", name, ne, spec, nparts, seed)
						got, err := core.Run(context.Background(), name, prob, nparts, seed, nil)
						if err != nil {
							t.Fatalf("%s: core.Run: %v", what, err)
						}
						want, err := metis.PartitionCtx(context.Background(), g, nparts, metis.Options{Method: method, Seed: seed})
						if err != nil {
							t.Fatalf("%s: PartitionCtx: %v", what, err)
						}
						if !slices.Equal(got.Assignment(), want.Assignment()) {
							t.Errorf("%s: the view's assignment differs from the graph's", what)
						}
					}
				}
			}
		}
	}
}
