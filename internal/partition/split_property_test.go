package partition

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refUniform is the rule SplitContiguous applied to uniform weights before
// the cut became arithmetic: position i goes to part i*nparts/n.
func refUniform(n, nparts int) []int32 {
	seg := make([]int32, n)
	for i := range seg {
		seg[i] = int32(i * nparts / n)
	}
	return seg
}

// refSplitAlong is the split as it was specified before SplitAlong cut in
// place: gather the weights into visit order, decide the cut points on the
// gathered vector, label every rank, scatter the labels back to ids.
func refSplitAlong(order []int, nparts int, weights []int64) []int32 {
	n := len(order)
	w := make([]int64, n)
	uniform := true
	for rank, id := range order {
		w[rank] = weights[id]
		uniform = uniform && w[rank] == w[0]
	}
	seg := refUniform(n, nparts)
	if !uniform {
		starts := cutOf(identityOrder(n), w, nparts)
		for p := 0; p < nparts; p++ {
			for r := starts[p]; r < starts[p+1]; r++ {
				seg[r] = int32(p)
			}
		}
	}
	assign := make([]int32, n)
	for rank, id := range order {
		assign[id] = seg[rank]
	}
	return assign
}

// TestUniformCutIsClosedForm holds the arithmetic cut (part p starts at rank
// ceil(p*n/nparts)) to the per-position rule it replaced, exhaustively for
// small sizes and at the element counts the benchmarks and the service see.
func TestUniformCutIsClosedForm(t *testing.T) {
	check := func(n, nparts int) {
		t.Helper()
		got, err := SplitAlong(identityOrder(n), nparts, nil)
		if err != nil {
			t.Fatalf("n=%d nparts=%d: %v", n, nparts, err)
		}
		if want := refUniform(n, nparts); !slices.Equal(got, want) {
			t.Fatalf("n=%d nparts=%d: closed-form cut differs from i*nparts/n", n, nparts)
		}
	}
	maxN := 600
	if testing.Short() {
		maxN = 120
	}
	for n := 1; n <= maxN; n++ {
		for nparts := 1; nparts <= n; nparts++ {
			check(n, nparts)
		}
	}
	for _, c := range [][2]int{
		{98304, 49152}, {884736, 9216}, {884736, 442368}, // Ne=128 and Ne=384
		{98304, 6144 + 7}, {65537, 257}, {99991, 9973}, {99991, 99991}, {884736, 1}, // primes and the ends
	} {
		check(c[0], c[1])
	}
}

// TestSplitAlongMatchesGatherScatter: cutting in place along a scrambled
// visit order gives the assignment of gather -> splitPoints -> scatter, for
// weight vectors with zeros, all-equal entries and one dominant item, at
// sizes on both sides of the parallel fill's chunk threshold.
func TestSplitAlongMatchesGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	gens := []struct {
		name string
		gen  func(n int) []int64
	}{
		{"random", func(n int) []int64 {
			w := make([]int64, n)
			for i := range w {
				w[i] = rng.Int63n(100)
			}
			w[rng.Intn(n)]++ // never all zero
			return w
		}},
		{"zeros", func(n int) []int64 {
			w := make([]int64, n)
			for i := range w {
				if rng.Intn(3) == 0 {
					w[i] = 1 + rng.Int63n(9)
				}
			}
			w[rng.Intn(n)] = 5
			return w
		}},
		{"all-equal", func(n int) []int64 {
			w := make([]int64, n)
			for i := range w {
				w[i] = 7
			}
			return w
		}},
		{"one-heavy", func(n int) []int64 {
			w := make([]int64, n)
			for i := range w {
				w[i] = 1
			}
			w[rng.Intn(n)] = int64(10 * n)
			return w
		}},
	}
	sizes := []int{1, 2, 3, 17, 96, 1000, 3 * splitFillChunk}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, g := range gens {
		for _, n := range sizes {
			order := rng.Perm(n)
			w := g.gen(n)
			for _, nparts := range []int{1, 2, 1 + n/3, n - 1, n} {
				if nparts < 1 || nparts > n {
					continue
				}
				got, err := SplitAlong(order, nparts, w)
				if err != nil {
					t.Fatalf("%s n=%d nparts=%d: %v", g.name, n, nparts, err)
				}
				if want := refSplitAlong(order, nparts, w); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d nparts=%d: in-place cut differs from gather/scatter", g.name, n, nparts)
				}
			}
		}
	}
}

// TestSplitAlongErrorIndexIsItemID: the negative weight is reported at its
// id, whatever rank the order visits it at, and before any nparts error.
func TestSplitAlongErrorIndexIsItemID(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		order := rng.Perm(n)
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + rng.Int63n(5)
		}
		bad := rng.Intn(n)
		w[bad] = -3
		var we *WeightError
		if _, err := SplitAlong(order, n+1, w); !errors.As(err, &we) || we.Index != bad || we.Weight != -3 {
			t.Fatalf("trial %d: negative weight at id %d reported as %v", trial, bad, err)
		}
	}
}
