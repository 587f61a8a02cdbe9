package core_test

import (
	"context"
	"math/rand"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/partition"
)

// weightedLB is the load balance of equation (1) over the part weights of
// one sfc run.
func weightedLB(t *testing.T, p *core.Problem, nparts int) float64 {
	t.Helper()
	part, err := core.Run(context.Background(), "sfc", p, nparts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int64, nparts)
	for v, q := range part.Assignment() {
		load[q] += p.Weights()[v]
	}
	return partition.LoadBalance(load)
}

// TestWeightedSplitLoadBalance measures the weighted curve split where the
// service runs it: method sfc, nparts drawn uniformly from [K/64, K/2] (the
// range of the svc-miss-sfc benchmark workload). The split's heaviest part
// is the least any contiguous split can have, so over the hv sample at
// Ne=128 the mean LB must stay at or below 0.25; the greedy prefix walk it
// replaced read 0.251 there, and the optimum reads 0.172. At K/8 the
// optimum (0.086) passes the service's default 0.10 gate, which the greedy
// walk (0.124) failed. The table is logged for the ledger.
func TestWeightedSplitLoadBalance(t *testing.T) {
	samples := 300
	if testing.Short() {
		samples = 60
	}
	for _, c := range []struct {
		spec string
		ne   int
	}{
		{"hv:amp=16,m=6", 32}, {"hv:amp=16,m=6", 128}, {"cfl", 32}, {"cfl", 128},
	} {
		p := newProblem(t, c.ne, c.spec)
		k := 6 * c.ne * c.ne
		rng := rand.New(rand.NewSource(1))
		sum, pass := 0.0, 0
		for i := 0; i < samples; i++ {
			lb := weightedLB(t, p, k/64+rng.Intn(k/2-k/64+1))
			sum += lb
			if lb <= 0.10 {
				pass++
			}
		}
		mean := sum / float64(samples)
		t.Logf("%s Ne=%d: mean LB %.3f over %d nparts in [K/64, K/2], %d at or under 0.10", c.spec, c.ne, mean, samples, pass)
		if c.spec == "hv:amp=16,m=6" && c.ne == 128 {
			if mean > 0.25 {
				t.Errorf("hv Ne=128: mean LB %.3f, want <= 0.25", mean)
			}
			if lb := weightedLB(t, p, k/8); lb > 0.10 {
				t.Errorf("hv Ne=128 K/8: LB %.4f, want <= 0.10", lb)
			}
		}
	}
}
