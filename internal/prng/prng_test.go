package prng

import "testing"

// The reference SplitMix64 outputs for state 0 (Vigna's splitmix64.c). Every
// seeded stream in the repo — METIS subtrees, fault arming, chaos draws,
// retry jitter — is pinned to goldens downstream; this pins the generator
// itself.
func TestKnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	if got := Mix(0); got != want[0] {
		t.Errorf("Mix(0) = %#x, want %#x", got, want[0])
	}
	r := New(0)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Errorf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnAndShuffle(t *testing.T) {
	r := New(42)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	New(1).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	seen := make([]bool, len(perm))
	for _, v := range perm {
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("shuffle lost %d: %v", v, perm)
		}
	}
}
