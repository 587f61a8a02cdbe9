package seam

import (
	"math"
	"testing"
	"time"
)

func w2Solver(t testing.TB, ne, n int) (*ShallowWater, float64) {
	t.Helper()
	g := testGrid(t, ne, n)
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400)
	wind, phi := Williamson2(g.Radius, g.Omega, u0, 2.94e4)
	sw.SetState(wind, phi)
	return sw, sw.MaxStableDt(0.4)
}

// blockAssign distributes elements over ranks in equal contiguous blocks.
func blockAssign(k, nranks int) []int32 {
	a := make([]int32, k)
	for i := range a {
		a[i] = int32(i * nranks / k)
	}
	return a
}

func TestNewRunnerErrors(t *testing.T) {
	sw, _ := w2Solver(t, 2, 3)
	k := sw.G.NumElems()
	if _, err := NewRunner(sw, make([]int32, k-1), 2); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := NewRunner(sw, make([]int32, k), 0); err == nil {
		t.Error("nranks=0 accepted")
	}
	bad := make([]int32, k)
	bad[3] = 7
	if _, err := NewRunner(sw, bad, 2); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// requireBitwiseEqual fails if any prognostic field of the two solvers
// differs in any bit (compared as float64 values).
func requireBitwiseEqual(t *testing.T, seqSW, parSW *ShallowWater, label string) {
	t.Helper()
	npts := seqSW.G.PointsPerElem()
	for e := 0; e < seqSW.G.NumElems(); e++ {
		for i := 0; i < npts; i++ {
			if seqSW.Phi[e*npts+i] != parSW.Phi[e*npts+i] {
				t.Fatalf("%s: Phi differs at elem %d point %d: %v vs %v",
					label, e, i, seqSW.Phi[e*npts+i], parSW.Phi[e*npts+i])
			}
			if seqSW.V1[e*npts+i] != parSW.V1[e*npts+i] || seqSW.V2[e*npts+i] != parSW.V2[e*npts+i] {
				t.Fatalf("%s: velocity differs at elem %d point %d", label, e, i)
			}
		}
	}
}

func TestRunnerMatchesSequential(t *testing.T) {
	// Run the same problem sequentially and with 4 ranks; results must be
	// bitwise identical because the arithmetic per element and per shared
	// node is identical, only the loop order over nodes differs.
	seqSW, dt := w2Solver(t, 2, 4)
	parSW, _ := w2Solver(t, 2, 4)
	steps := 5
	for s := 0; s < steps; s++ {
		seqSW.Step(dt)
	}
	r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(steps, dt)
	requireBitwiseEqual(t, seqSW, parSW, "4 ranks")
}

// The flat-slab runner must stay bitwise identical to the sequential solver
// for rank counts that exercise every scheduler regime: 1 (degenerate), 2
// and 3 (uneven 24-element split), and 7 (ranks ≫ a 1-2 core CI box, so the
// scheduler multiplexes several ranks per worker).
func TestRunnerBitwiseEquivalenceAcrossRanks(t *testing.T) {
	const steps = 10
	for _, nranks := range []int{1, 2, 3, 7} {
		seqSW, dt := w2Solver(t, 2, 4)
		parSW, _ := w2Solver(t, 2, 4)
		for s := 0; s < steps; s++ {
			seqSW.Step(dt)
		}
		r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), nranks), nranks)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(steps, dt)
		requireBitwiseEqual(t, seqSW, parSW, "nranks="+string(rune('0'+nranks)))
	}
}

// Same property with an explicitly capped worker count (1 and 2 workers for
// 6 ranks): the epoch scheduler must not change any bit of the answer.
func TestRunnerBitwiseEquivalenceCappedWorkers(t *testing.T) {
	const steps = 10
	for _, workers := range []int{1, 2} {
		seqSW, dt := w2Solver(t, 2, 3)
		parSW, _ := w2Solver(t, 2, 3)
		for s := 0; s < steps; s++ {
			seqSW.Step(dt)
		}
		r, err := NewRunner(parSW, blockAssign(parSW.G.NumElems(), 6), 6)
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = workers
		r.Run(steps, dt)
		requireBitwiseEqual(t, seqSW, parSW, "capped workers")
	}
}

// Splitting one Run into several must give the same bits as one long Run
// (the inter-step epilogue/prologue fusion must commit state correctly at
// Run boundaries).
func TestRunnerSplitRunsMatch(t *testing.T) {
	oneSW, dt := w2Solver(t, 2, 3)
	splitSW, _ := w2Solver(t, 2, 3)
	r1, err := NewRunner(oneSW, blockAssign(oneSW.G.NumElems(), 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(splitSW, blockAssign(splitSW.G.NumElems(), 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	r1.Run(6, dt)
	r2.Run(2, dt)
	r2.Run(1, dt)
	r2.Run(3, dt)
	requireBitwiseEqual(t, oneSW, splitSW, "split runs")
}

// BusyTime holds per-call compute time: a second Run must not inherit the
// first call's accumulation (the busy/wall efficiency bug this contract
// fixes), and a zero-step Run reports zero busy time.
func TestRunnerBusyTimePerCall(t *testing.T) {
	sw, dt := w2Solver(t, 2, 3)
	r, err := NewRunner(sw, blockAssign(sw.G.NumElems(), 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	wall1 := r.Run(20, dt) // warm-up
	var busy1 time.Duration
	for _, b := range r.BusyTime {
		busy1 += b
	}
	if busy1 <= 0 {
		t.Fatal("warm-up Run reported no busy time")
	}
	wall2 := r.Run(1, dt)
	var busy2 time.Duration
	for _, b := range r.BusyTime {
		busy2 += b
	}
	if busy2 <= 0 {
		t.Fatal("second Run reported no busy time")
	}
	// Per-call busy time can never exceed per-call wall time summed over
	// ranks-worth of workers; with accumulation across calls the 20-step
	// warm-up would dwarf the 1-step wall clock.
	maxBusy := wall2 * time.Duration(r.NRanks)
	if busy2 > maxBusy && busy2 > wall1 {
		t.Errorf("BusyTime looks cumulative across Run calls: busy=%v after 1 step (warm-up wall %v)", busy2, wall1)
	}
	r.Run(0, dt)
	for rk, b := range r.BusyTime {
		if b != 0 {
			t.Errorf("rank %d busy %v after zero-step Run, want 0", rk, b)
		}
	}
}

func TestRunnerSingleRankMatchesSequential(t *testing.T) {
	seqSW, dt := w2Solver(t, 1, 3)
	parSW, _ := w2Solver(t, 1, 3)
	for s := 0; s < 3; s++ {
		seqSW.Step(dt)
	}
	r, _ := NewRunner(parSW, blockAssign(parSW.G.NumElems(), 1), 1)
	r.Run(3, dt)
	requireBitwiseEqual(t, seqSW, parSW, "1 rank")
}

func TestRunnerOwnership(t *testing.T) {
	sw, _ := w2Solver(t, 2, 3)
	k := sw.G.NumElems()
	r, err := NewRunner(sw, blockAssign(k, 6), 6)
	if err != nil {
		t.Fatal(err)
	}
	owned := r.NumOwned()
	total := 0
	for _, c := range owned {
		if c != k/6 {
			t.Errorf("rank owns %d elements, want %d", c, k/6)
		}
		total += c
	}
	if total != k {
		t.Errorf("ownership covers %d of %d elements", total, k)
	}
}

// Communication accounting: a single rank sends nothing; more ranks send
// more; totals are symmetric in the sense that every byte has a sender.
func TestRunnerCommAccounting(t *testing.T) {
	sw, _ := w2Solver(t, 2, 3)
	k := sw.G.NumElems()
	r1, _ := NewRunner(sw, blockAssign(k, 1), 1)
	for _, b := range r1.BytesPerStep() {
		if b != 0 {
			t.Errorf("single rank sends %d bytes", b)
		}
	}
	r4, _ := NewRunner(sw, blockAssign(k, 4), 4)
	var total int64
	for _, b := range r4.BytesPerStep() {
		if b <= 0 {
			t.Errorf("rank sends %d bytes, want > 0", b)
		}
		total += b
	}
	// 4 RK stages x 3 fields per step.
	var perApply int64
	for _, b := range r4.sentPerApply {
		perApply += b
	}
	if total != perApply*12 {
		t.Errorf("BytesPerStep %d != 12 * per-apply %d", total, perApply)
	}
}
