package core_test

import (
	"context"
	"fmt"
	"testing"

	"sfccube/internal/core"
)

// BenchmarkProblemStats times the stats stage alone: Problem.Stats of an sfc
// cut into K/4 parts, streamed over the mesh view ("view", what a curve
// request pays) and read from the CSR graph ("csr", what a multilevel request
// pays). Problem, curve, partition and — for csr — the graph are built
// outside the timed region.
func BenchmarkProblemStats(b *testing.B) {
	for _, sub := range []string{"view", "csr"} {
		for _, ne := range []int{32, 128} {
			b.Run(fmt.Sprintf("%s/Ne%d", sub, ne), func(b *testing.B) {
				prob, err := core.NewProblem(ne)
				if err != nil {
					b.Fatal(err)
				}
				if sub == "csr" {
					if _, err := prob.Graph(); err != nil {
						b.Fatal(err)
					}
				}
				k := prob.Mesh().NumElems()
				part, err := core.Run(context.Background(), "sfc", prob, k/4, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := prob.Stats(part); err != nil { // untimed warm-up
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prob.Stats(part); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/element")
			})
		}
	}
}
