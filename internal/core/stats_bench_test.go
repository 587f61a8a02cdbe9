package core_test

import (
	"context"
	"fmt"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/partition"
)

// BenchmarkProblemStats times the stats stage alone on an sfc cut:
// Problem.Stats, which sweeps the mesh view ("view", what every request
// pays), and partition.ComputeStats over the CSR graph ("csr", what AMR
// forests and caller-supplied graphs pay). Problem, curve, partition and —
// for csr — the graph are built outside the timed region. The plain names
// cut K/4 parts (the recorded baselines); "-per2", "-per16" and "-per64" cut
// K/2, K/16 and K/64 — the elements per part that svc-miss-sfc's traffic and
// the paper's few-elements-per-processor regime span — and every case reports
// the share of rows that carry a cut edge ("cut-rows/row"): the rows no
// skip-the-interior fast path could skip.
func BenchmarkProblemStats(b *testing.B) {
	for _, per := range []int{4, 2, 16, 64} {
		for _, sub := range []string{"view", "csr"} {
			for _, ne := range []int{32, 128} {
				name := fmt.Sprintf("%s/Ne%d", sub, ne)
				if per != 4 {
					name = fmt.Sprintf("%s-per%d/Ne%d", sub, per, ne)
				}
				b.Run(name, func(b *testing.B) {
					prob, err := core.NewProblem(ne)
					if err != nil {
						b.Fatal(err)
					}
					k := prob.Mesh().NumElems()
					part, err := core.Run(context.Background(), "sfc", prob, k/per, 0, nil)
					if err != nil {
						b.Fatal(err)
					}
					stats := prob.Stats
					if sub == "csr" {
						g, err := prob.Graph()
						if err != nil {
							b.Fatal(err)
						}
						stats = func(part *partition.Partition) (partition.Stats, error) { return partition.ComputeStats(g, part) }
					}
					st, err := stats(part) // untimed warm-up
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := stats(part); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/element")
					b.ReportMetric(float64(st.CutVertices)/float64(k), "cut-rows/row")
				})
			}
		}
	}
}
