package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
)

// TestGateReadsTheReportedBalance: the gate judges the balance the answer
// reports. A caller graph whose vertex weights are skewed (face 0 weighs 9
// an element, the rest 1) and no weight vector: Problem.Stats measures the
// count-balanced curve cut under those vertex weights, far above MaxLB, so
// the chain must refuse it rather than accept a cut whose reported LB
// exceeds the limit.
func TestGateReadsTheReportedBalance(t *testing.T) {
	const ne, nparts = 8, 24
	m, err := mesh.New(ne)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vw := make([]int32, m.NumElems())
	for v := range vw {
		vw[v] = 1
		if v < ne*ne {
			vw[v] = 9
		}
	}
	if err := g.SetVertexWeights(vw); err != nil {
		t.Fatal(err)
	}
	prob, err := core.ProblemFrom(ne, m, g)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.Run(context.Background(), "sfc", prob, nparts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prob.Stats(part)
	if err != nil {
		t.Fatal(err)
	}
	const maxLB = 0.05
	if st.LBWeighted <= maxLB {
		t.Fatalf("the sfc cut measures LB %.4f under the skewed vertex weights, want > %.2f", st.LBWeighted, maxLB)
	}

	spec := NewFallbackSpec(ne, nparts)
	spec.Chain, spec.MaxLB = []Strategy{StrategySFC}, maxLB
	res, err := PartitionProblem(context.Background(), prob, spec)
	if err == nil {
		t.Fatalf("chain accepted %s with reported LB %.4f > MaxLB %.2f", res.Strategy, res.Stats.LBWeighted, maxLB)
	}
	var ex *ExhaustedError
	var be *BalanceError
	if !errors.As(err, &ex) || len(ex.Attempts) != 1 || !errors.As(ex.Attempts[0].Err, &be) || be.LB != st.LBWeighted || be.Limit != maxLB {
		t.Fatalf("got %v, want one *BalanceError at LB %.4f", err, st.LBWeighted)
	}
}

// TestGateAnswersWhatItReports: over unit, cfl and hv loads, both chains and
// MaxLB -1, 0 and 0.1, every accepted result carries the stats Problem.Stats
// gives its partition, has no empty part, and is within MaxLB whenever MaxLB
// is not negative. A refused request fails with *ExhaustedError; MaxLB = -1
// accepts every non-empty cut, so it never fails.
func TestGateAnswersWhatItReports(t *testing.T) {
	const ne = 8
	accepted := 0
	for _, load := range []string{"", "cfl", "hv"} {
		for cname, chain := range map[string][]Strategy{"default": DefaultChain, "repartition": RepartitionChain} {
			for _, maxLB := range []float64{-1, 0, 0.1} {
				for _, nparts := range []int{16, 96} {
					t.Run(fmt.Sprintf("%q/%s/maxlb%g/p%d", load, cname, maxLB, nparts), func(t *testing.T) {
						prob, err := core.NewProblem(ne)
						if err != nil {
							t.Fatal(err)
						}
						if err := prob.SetWeightSpec(load); err != nil {
							t.Fatal(err)
						}
						spec := NewFallbackSpec(ne, nparts)
						spec.Chain, spec.MaxLB = chain, maxLB
						res, err := PartitionProblem(context.Background(), prob, spec)
						if err != nil {
							var ex *ExhaustedError
							if maxLB < 0 || !errors.As(err, &ex) {
								t.Fatalf("got %v", err)
							}
							return
						}
						accepted++
						want, err := prob.Stats(res.Partition)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(res.Stats, want) {
							t.Errorf("res.Stats %+v\nprob.Stats %+v", res.Stats, want)
						}
						if res.Stats.EmptyParts != 0 {
							t.Errorf("%s accepted with %d empty parts", res.Strategy, res.Stats.EmptyParts)
						}
						if maxLB >= 0 && res.Stats.LBWeighted > maxLB {
							t.Errorf("%s accepted at LB %.4f > MaxLB %g", res.Strategy, res.Stats.LBWeighted, maxLB)
						}
					})
				}
			}
		}
	}
	if accepted == 0 {
		t.Error("no request was accepted: the property was never exercised")
	}
}
