// Package prng is the repo's one deterministic generator: the SplitMix64 mix
// (Steele et al.) and the one-word stream built on it. Every seeded decision
// — METIS subtree streams, fault arming, chaos draws, retry jitter — is a
// pure function of its seed through Mix, with no global state, so results
// are byte-identical across runs, platforms and GOMAXPROCS settings.
package prng

// Mix is one SplitMix64 step: the 64-bit finaliser applied to x plus the
// golden-ratio increment.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a SplitMix64 sequence. Seeding is a single register write and the
// state is one word, so creating one per recursive-bisection subtree (where
// math/rand's ~600-word source initialisation profiled at >10% of a K-way
// partition) is effectively free.
type Stream struct{ s uint64 }

// New returns the stream for seed.
func New(seed uint64) *Stream { return &Stream{s: seed} }

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	z := Mix(r.s)
	r.s += 0x9e3779b97f4a7c15
	return z
}

// Intn returns a value in [0, n) for 0 < n <= 1<<31, using Lemire's
// multiply-shift reduction (the bias for these n is < 2^-32, and only
// determinism — not statistical perfection — matters here).
func (r *Stream) Intn(n int) int {
	return int((r.Uint64() >> 32) * uint64(n) >> 32)
}

// Shuffle performs a Fisher-Yates shuffle of n elements through swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
