package resilience

import (
	"context"
	"errors"
	"testing"

	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/weights"
)

func cflWeights(t *testing.T, ne int) []int64 {
	t.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := weights.Parse("cfl:amp=16")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(m)
}

// weightedLB recomputes equation (1) over per-part weight totals.
func weightedLB(p *partition.Partition, w []int64) float64 {
	totals := make([]int64, p.NumParts())
	for v := 0; v < p.NumVertices(); v++ {
		totals[p.Part(v)] += w[v]
	}
	return partition.LoadBalance(totals)
}

// TestFallbackWeightedChain runs every chain strategy under an element
// weight vector and asserts the acceptance gate was applied to the weighted
// balance: whatever link wins, its partition is within MaxLB of perfect
// weighted balance.
func TestFallbackWeightedChain(t *testing.T) {
	const ne, nprocs = 8, 16
	w := cflWeights(t, ne)
	for _, chain := range [][]Strategy{
		nil, // default quality-first chain
		{StrategySFC},
		{StrategyRB},
		{StrategySerpentine},
	} {
		spec := NewFallbackSpec(ne, nprocs)
		spec.Chain = chain
		spec.Weights = w
		res, err := PartitionWithFallback(context.Background(), spec)
		if err != nil {
			t.Fatalf("chain %v: %v", chain, err)
		}
		if lb := weightedLB(res.Partition, w); lb > spec.MaxLB {
			t.Errorf("chain %v (%s): weighted LB %.4f exceeds accepted %.4f",
				chain, res.Strategy, lb, spec.MaxLB)
		}
	}
}

// TestFallbackWeightValidation pins the typed-error contract: a malformed
// weight vector fails the chain before any strategy runs.
func TestFallbackWeightValidation(t *testing.T) {
	const ne, nprocs = 4, 6
	k := 6 * ne * ne

	spec := NewFallbackSpec(ne, nprocs)
	spec.Weights = make([]int64, k)
	spec.Weights[3] = -1
	var we *partition.WeightError
	if _, err := PartitionWithFallback(context.Background(), spec); !errors.As(err, &we) {
		t.Errorf("negative weight: got %v, want *partition.WeightError", err)
	}

	spec = NewFallbackSpec(ne, nprocs)
	spec.Weights = make([]int64, k) // all zero
	var ze *partition.ZeroTotalWeightError
	if _, err := PartitionWithFallback(context.Background(), spec); !errors.As(err, &ze) {
		t.Errorf("zero total weight: got %v, want *partition.ZeroTotalWeightError", err)
	}

	spec = NewFallbackSpec(ne, nprocs)
	spec.Weights = []int64{1, 2, 3} // wrong length
	if _, err := PartitionWithFallback(context.Background(), spec); err == nil {
		t.Error("short weight vector accepted")
	}
}
