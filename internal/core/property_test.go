package core

import (
	"testing"
	"testing/quick"

	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// Property: for every valid (Ne, NProcs) pair the SFC partition is a valid,
// contiguous-along-the-curve assignment with part sizes within one element
// of each other.
func TestPartitionPropertyRandomConfigs(t *testing.T) {
	validNe := []int{2, 3, 4, 6, 8, 9, 12}
	f := func(rawNe, rawProcs uint16, rawOrder uint8) bool {
		ne := validNe[int(rawNe)%len(validNe)]
		k := 6 * ne * ne
		nprocs := 1 + int(rawProcs)%k
		order := []sfc.Order{sfc.PeanoFirst, sfc.HilbertFirst, sfc.Interleaved}[int(rawOrder)%3]
		res, err := PartitionCubedSphere(Config{Ne: ne, NProcs: nprocs, Order: order})
		if err != nil {
			return false
		}
		counts := res.Partition.Counts()
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c == 0 {
				return false
			}
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			return false
		}
		// Monotone along the curve.
		last := -1
		for r := 0; r < res.Curve.Len(); r++ {
			p := res.Partition.Part(int(res.Curve.At(r)))
			if p < last {
				return false
			}
			last = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: weighted partitioning achieves a weighted max-part no worse
// than the ideal average plus the heaviest element, for random weights.
func TestWeightedPartitionBoundProperty(t *testing.T) {
	const ne = 6
	k := 6 * ne * ne
	f := func(seed uint32, rawProcs uint8) bool {
		nprocs := 2 + int(rawProcs)%32
		weights := make([]int64, k)
		s := uint64(seed) + 1
		var total, maxW int64
		for i := range weights {
			s = s*6364136223846793005 + 1442695040888963407
			weights[i] = int64(s>>60) + 1 // 1..16
			total += weights[i]
			if weights[i] > maxW {
				maxW = weights[i]
			}
		}
		res, err := PartitionCubedSphere(Config{Ne: ne, NProcs: nprocs, Weights: weights})
		if err != nil {
			return false
		}
		wc := partLoads(res.Partition, weights)
		avg := float64(total) / float64(nprocs)
		for _, w := range wc {
			// Greedy contiguous splitting bound (loose but safe).
			if float64(w) > avg+float64(maxW)*float64(nprocs) {
				return false
			}
		}
		return partition.LoadBalance(wc) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The largest resolution the paper mentions (Ne=24, K=3456) works end to
// end, including at one element per processor.
func TestLargestPaperResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("K=3456 in short mode")
	}
	res, err := PartitionCubedSphere(Config{Ne: 24, NProcs: 3456})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Partition.Counts() {
		if c != 1 {
			t.Fatalf("count %d, want 1", c)
		}
	}
	if !res.Curve.IsContinuous() {
		t.Error("Ne=24 curve not continuous")
	}
}
