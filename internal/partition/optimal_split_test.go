package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// optimalHeaviest is the O(n²k) dynamic programme over contiguous splits:
// best[i] is the least heaviest part over the splits of the first i weights
// into j non-empty parts, for j = 1..k in turn. It knows nothing of
// bisection, packing or walks.
func optimalHeaviest(w []int64, k int) int64 {
	n := len(w)
	prefix := make([]int64, n+1)
	for i, x := range w {
		prefix[i+1] = prefix[i] + x
	}
	const none = math.MaxInt64
	best := slices.Clone(prefix)
	best[0] = none
	for j := 2; j <= k; j++ {
		next := make([]int64, n+1)
		for i := range next {
			next[i] = none
			for m := j - 1; m < i; m++ { // the j-th part is [m, i)
				if best[m] != none {
					next[i] = min(next[i], max(best[m], prefix[i]-prefix[m]))
				}
			}
		}
		best = next
	}
	return best[n]
}

// bisectHeaviest is a second, independent optimum for sizes the DP cannot
// afford: the least bound in [1, total] under which a first-fit pack over
// prefix sums of the gathered weights needs at most k parts.
func bisectHeaviest(w []int64, k int) int64 {
	prefix := make([]int64, len(w)+1)
	for i, x := range w {
		prefix[i+1] = prefix[i] + x
	}
	feasible := func(b int64) bool {
		parts, start := 0, 0
		for start < len(w) {
			if w[start] > b {
				return false
			}
			// The first rank past the longest part from start within b.
			end := start + 1
			for end < len(w) && prefix[end+1]-prefix[start] <= b {
				end++
			}
			parts, start = parts+1, end
		}
		return parts <= k
	}
	lo, hi := int64(1), prefix[len(w)]
	for lo < hi {
		if mid := lo + (hi-lo)/2; feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cutWeights checks that starts cuts n ranks into len(starts)-1 contiguous,
// non-empty parts and returns the heaviest part's weight along order.
func cutWeights(t testing.TB, order []int, w []int64, starts []int) int64 {
	t.Helper()
	n, k := len(order), len(starts)-1
	if starts[0] != 0 || starts[k] != n {
		t.Fatalf("cuts %v do not span [0, %d)", starts, n)
	}
	var heaviest int64
	for p := 0; p < k; p++ {
		if starts[p+1] <= starts[p] {
			t.Fatalf("part %d of %d is empty: cuts %v", p, k, starts)
		}
		var sum int64
		for _, id := range order[starts[p]:starts[p+1]] {
			sum += w[id]
		}
		heaviest = max(heaviest, sum)
	}
	return heaviest
}

// cutOf runs the weighted cut as SplitAlong does: gatherWeights, then
// splitPoints. w must be valid.
func cutOf(order []int, w []int64, k int) []int {
	gathered := make([]int32, len(order))
	total, heaviest, sumSq, err := gatherWeights(order, w, gathered)
	if err != nil {
		panic(err)
	}
	return splitPoints(order, w, gathered, k, total, heaviest, sumSq)
}

// splitBoth runs the optimal split and the greedy reference on the same
// input and returns both sets of cuts.
func splitBoth(order []int, w []int64, k int) (opt, greedy []int) {
	var total int64
	for _, x := range w {
		total += x
	}
	return cutOf(order, w, k), greedySplitPoints(order, w, k, total)
}

// weightGens are the weight shapes the split tests draw from: uniform
// random, mostly zero (inactive elements), one dominant item, a smooth
// hyperviscosity-like bump, two values, and weights too heavy for the int32
// gather (the int64 copy).
var weightGens = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []int64
}{
	{"random", func(rng *rand.Rand, n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = rng.Int63n(100)
		}
		w[rng.Intn(n)]++
		return w
	}},
	{"zeros", func(rng *rand.Rand, n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			if rng.Intn(3) == 0 {
				w[i] = 1 + rng.Int63n(9)
			}
		}
		w[rng.Intn(n)] = 5
		return w
	}},
	{"one-heavy", func(rng *rand.Rand, n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = 1
		}
		w[rng.Intn(n)] = int64(1 + rng.Intn(3*n))
		return w
	}},
	{"smooth", func(rng *rand.Rand, n int) []int64 {
		w := make([]int64, n)
		m, phase := 1+rng.Float64()*6, rng.Float64()*math.Pi
		for i := range w {
			w[i] = 1 + int64(16*math.Abs(math.Sin(m*math.Pi*float64(i)/float64(n)+phase)))
		}
		return w
	}},
	{"two-valued", func(rng *rand.Rand, n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + 3*int64(rng.Intn(2))
		}
		return w
	}},
	{"beyond-int32", func(rng *rand.Rand, n int) []int64 {
		w := make([]int64, n)
		for i := range w {
			w[i] = rng.Int63n(1 << 40)
		}
		w[rng.Intn(n)] = math.MaxInt32 + 1
		return w
	}},
}

// TestSplitPointsOptimal holds the weighted split to the DP oracle on every
// nparts of every small case: the heaviest part equals the optimum, every
// part is non-empty and contiguous, no part is heavier than the greedy
// walk's heaviest, and where that was already optimal the cuts are the
// greedy walk's.
func TestSplitPointsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	improved := 0
	for trial := 0; trial < 300; trial++ {
		g := weightGens[trial%len(weightGens)]
		n := 1 + rng.Intn(14)
		w, order := g.gen(rng, n), rng.Perm(n)
		gathered := make([]int64, n)
		for r, id := range order {
			gathered[r] = w[id]
		}
		for k := 1; k <= n; k++ {
			opt, greedy := splitBoth(order, w, k)
			got, gw := cutWeights(t, order, w, opt), cutWeights(t, order, w, greedy)
			if want := optimalHeaviest(gathered, k); got != want || got > gw {
				t.Fatalf("%s n=%d k=%d weights %v: heaviest part %d, optimum %d, greedy %d", g.name, n, k, gathered, got, want, gw)
			}
			if got < gw {
				improved++
			} else if !slices.Equal(opt, greedy) {
				t.Fatalf("%s n=%d k=%d weights %v: greedy was optimal but its cuts %v became %v", g.name, n, k, gathered, greedy, opt)
			}
		}
	}
	if improved == 0 {
		t.Fatal("no case where the greedy walk was suboptimal: the oracle compares nothing")
	}
}

// TestSplitPointsKeepsOptimalGreedy: on larger cases, against a second
// oracle, the split is optimal and never heavier than the greedy walk, and
// wherever the greedy walk's heaviest part is already optimal its cuts are
// kept byte for byte.
func TestSplitPointsKeepsOptimalGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials, kept, improved := 600, 0, 0
	if testing.Short() {
		trials = 150
	}
	for trial := 0; trial < trials; trial++ {
		g := weightGens[trial%len(weightGens)]
		n := 15 + rng.Intn(1500)
		w, order := g.gen(rng, n), rng.Perm(n)
		gathered := make([]int64, n)
		for r, id := range order {
			gathered[r] = w[id]
		}
		for _, k := range []int{2, 1 + rng.Intn(n), n / 3, n / 16, n - 1} {
			if k < 1 {
				continue
			}
			opt, greedy := splitBoth(order, w, k)
			got, gw := cutWeights(t, order, w, opt), cutWeights(t, order, w, greedy)
			if want := bisectHeaviest(gathered, k); got != want || got > gw {
				t.Fatalf("%s n=%d k=%d: heaviest part %d, optimum %d, greedy %d", g.name, n, k, got, want, gw)
			}
			if got < gw {
				improved++
				continue
			}
			if !slices.Equal(opt, greedy) {
				t.Fatalf("%s n=%d k=%d: greedy was optimal (%d) but its cuts were not kept", g.name, n, k, gw)
			}
			kept++
		}
	}
	if kept == 0 || improved == 0 {
		t.Fatalf("kept %d greedy splits and improved %d: one side of the property is untested", kept, improved)
	}
}

// FuzzSplitAlong: one byte a weight along a scrambled visit order, nparts
// from the fuzzer. The split must succeed, give every part a contiguous,
// non-empty run of ranks and reach the DP optimum; unless the weights are
// all equal (the closed form), it must be no heavier than the greedy walk
// and keep its cuts when it was optimal.
func FuzzSplitAlong(f *testing.F) {
	f.Add([]byte{10, 1, 1, 1, 1, 1, 1, 10}, uint8(2), int64(0))
	f.Add([]byte{0, 0, 9, 0, 1, 200, 3, 3, 3, 0, 7}, uint8(4), int64(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(5), int64(9))
	f.Fuzz(func(t *testing.T, raw []byte, rawParts uint8, seed int64) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		n := len(raw)
		w := make([]int64, n)
		var total int64
		for i, b := range raw {
			w[i], total = int64(b), total+int64(b)
		}
		if total == 0 {
			return
		}
		order := rand.New(rand.NewSource(seed)).Perm(n)
		k := 1 + int(rawParts)%n
		assign, err := SplitAlong(order, k, w)
		if err != nil {
			t.Fatal(err)
		}
		gathered := make([]int64, n)
		starts := make([]int, 0, k+1)
		for r, id := range order {
			gathered[r] = w[id]
			switch p := int(assign[id]); {
			case p == len(starts):
				starts = append(starts, r)
			case p != len(starts)-1:
				t.Fatalf("rank %d goes to part %d after part %d: parts not contiguous in order", r, p, len(starts)-1)
			}
		}
		if len(starts) != k {
			t.Fatalf("%d non-empty parts, want %d", len(starts), k)
		}
		starts = append(starts, n)
		got := cutWeights(t, order, w, starts)
		if want := optimalHeaviest(gathered, k); got != want {
			t.Fatalf("weights %v k=%d: heaviest part %d, optimum %d", gathered, k, got, want)
		}
		if slices.Min(w) == slices.Max(w) {
			return // the closed form cuts equal weights; no walk runs
		}
		opt, greedy := splitBoth(order, w, k)
		if !slices.Equal(opt, starts) {
			t.Fatalf("SplitAlong cut at %v, splitPoints at %v", starts, opt)
		}
		if gw := cutWeights(t, order, w, greedy); got > gw {
			t.Fatalf("weights %v k=%d: heaviest part %d, greedy %d", gathered, k, got, gw)
		} else if got == gw && !slices.Equal(opt, greedy) {
			t.Fatalf("weights %v k=%d: greedy was optimal but its cuts %v became %v", gathered, k, greedy, opt)
		}
	})
}
