package core

import (
	"math"
	"testing"

	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

func TestMigrationBetween(t *testing.T) {
	a, _ := partition.FromAssignment([]int32{0, 0, 1, 1}, 2)
	b, _ := partition.FromAssignment([]int32{0, 1, 1, 1}, 2)
	m, err := MigrationBetween(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.Moved != 1 || m.MovedFraction != 0.25 || m.BytesMoved != 100 {
		t.Errorf("migration = %+v", m)
	}
	c, _ := partition.FromAssignment([]int32{0, 1}, 2)
	if _, err := MigrationBetween(a, c, 0); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRepartitionerIdenticalWeightsNoMigration(t *testing.T) {
	r, err := NewRepartitioner(8, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	_, mig, err := r.Update(48, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Moved != 0 {
		t.Errorf("first update reported migration %d", mig.Moved)
	}
	_, mig, err = r.Update(48, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Moved != 0 {
		t.Errorf("identical weights migrated %d elements", mig.Moved)
	}
}

func TestRepartitionerSmallPerturbationSmallMigration(t *testing.T) {
	const ne, nproc = 8, 48
	r, err := NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	k := 6 * ne * ne
	w := make([]int64, k)
	for i := range w {
		w[i] = 10
	}
	if _, _, err := r.Update(nproc, w, 0); err != nil {
		t.Fatal(err)
	}
	// Perturb a single element's weight slightly.
	w2 := append([]int64(nil), w...)
	w2[100] = 12
	_, mig, err := r.Update(nproc, w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With remapping, a local perturbation must move only a small
	// fraction of elements.
	if mig.MovedFraction > 0.10 {
		t.Errorf("tiny perturbation moved %.1f%% of elements", mig.MovedFraction*100)
	}
}

func TestRepartitionerTracksMovingLoad(t *testing.T) {
	const ne, nproc = 8, 24
	r, err := NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMesh(t, ne)
	k := m.NumElems()
	weightsAt := func(phase float64) []int64 {
		w := make([]int64, k)
		lon := 2 * math.Pi * phase
		c := mesh.Vec3{X: math.Cos(lon), Y: math.Sin(lon), Z: 0}
		for e := 0; e < k; e++ {
			if m.ElemCenter(mesh.ElemID(e)).Dot(c) > math.Cos(math.Pi/6) {
				w[e] = 5
			} else {
				w[e] = 1
			}
		}
		return w
	}
	var worstLB float64
	var meanMig float64
	steps := 12
	for s := 0; s < steps; s++ {
		w := weightsAt(float64(s) / float64(steps))
		p, mig, err := r.Update(nproc, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		lb := partition.LoadBalance(partLoads(p, w))
		if lb > worstLB {
			worstLB = lb
		}
		if s > 0 {
			meanMig += mig.MovedFraction
		}
	}
	meanMig /= float64(steps - 1)
	// The repartitioner must keep the weighted balance reasonable at every
	// step while moving much less than a from-scratch shuffle would.
	if worstLB > 0.25 {
		t.Errorf("worst weighted LB %.3f over the storm track", worstLB)
	}
	if meanMig > 0.5 {
		t.Errorf("mean migration %.1f%% too high for incremental repartitioning", meanMig*100)
	}
}

func TestRemapPreservesPartitionValidity(t *testing.T) {
	prev, _ := partition.FromAssignment([]int32{0, 0, 1, 1, 2, 2}, 3)
	cur, _ := partition.FromAssignment([]int32{2, 2, 0, 0, 1, 1}, 3)
	remapToPrevious(prev, cur)
	// After remapping, cur should exactly match prev (pure relabelling).
	for v := 0; v < 6; v++ {
		if cur.Part(v) != prev.Part(v) {
			t.Fatalf("vertex %d: part %d, want %d", v, cur.Part(v), prev.Part(v))
		}
	}
	// Still a valid partition with all parts non-empty.
	for q, c := range cur.Counts() {
		if c == 0 {
			t.Errorf("part %d empty after remap", q)
		}
	}
}

func TestRepartitionerPartCountChange(t *testing.T) {
	r, err := NewRepartitioner(4, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Update(8, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Changing the part count resets migration tracking (no remap across
	// different part counts).
	p, mig, err := r.Update(16, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 16 {
		t.Errorf("parts = %d", p.NumParts())
	}
	if mig.Moved != 0 {
		t.Errorf("migration across part-count change should be zero, got %d", mig.Moved)
	}
}

// TestRepartitionerMigrationMatchesBruteForce cross-checks the Migration the
// repartitioner reports against a by-hand diff of the consecutive partitions
// it returns: the reported numbers must be exactly the count of vertices
// whose (remapped) owner changed.
func TestRepartitionerMigrationMatchesBruteForce(t *testing.T) {
	const ne, nproc, bytesPerElem = 8, 24, 64
	r, err := NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	k := 6 * ne * ne
	w := make([]int64, k)
	for i := range w {
		w[i] = 1 + int64(i%7)
	}
	prevP, _, err := r.Update(nproc, w, bytesPerElem)
	if err != nil {
		t.Fatal(err)
	}
	prev := append([]int32(nil), prevP.Assignment()...)
	for step := 1; step <= 4; step++ {
		for i := range w {
			w[i] = 1 + int64((i*step+i%11)%9)
		}
		p, mig, err := r.Update(nproc, w, bytesPerElem)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for v, q := range p.Assignment() {
			if q != prev[v] {
				moved++
			}
		}
		if mig.Moved != moved {
			t.Fatalf("step %d: reported Moved=%d, brute force counts %d", step, mig.Moved, moved)
		}
		wantFrac := float64(moved) / float64(k)
		if mig.MovedFraction != wantFrac {
			t.Fatalf("step %d: MovedFraction=%v, want %v", step, mig.MovedFraction, wantFrac)
		}
		if mig.BytesMoved != int64(moved)*bytesPerElem {
			t.Fatalf("step %d: BytesMoved=%d, want %d", step, mig.BytesMoved, int64(moved)*bytesPerElem)
		}
		prev = append(prev[:0], p.Assignment()...)
	}
}

// TestRemapPreservesLoadBalance: relabelling permutes part identities but may
// not change part contents, so the weighted load balance after remapping must
// equal the balance of a fresh cut with the same weights.
func TestRemapPreservesLoadBalance(t *testing.T) {
	const ne, nproc = 8, 24
	k := 6 * ne * ne
	w := make([]int64, k)
	for i := range w {
		w[i] = 1 + int64(i%5)
	}
	w2 := append([]int64(nil), w...)
	for i := 0; i < k; i += 3 {
		w2[i] += 4
	}

	fresh, err := NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	pFresh, _, err := fresh.Update(nproc, w2, 0)
	if err != nil {
		t.Fatal(err)
	}

	incr, err := NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := incr.Update(nproc, w, 0); err != nil {
		t.Fatal(err)
	}
	pIncr, _, err := incr.Update(nproc, w2, 0)
	if err != nil {
		t.Fatal(err)
	}

	lbFresh := partition.LoadBalance(partLoads(pFresh, w2))
	lbIncr := partition.LoadBalance(partLoads(pIncr, w2))
	if lbFresh != lbIncr {
		t.Errorf("remapped LB %v differs from fresh-cut LB %v: relabel changed part contents", lbIncr, lbFresh)
	}
	// Stronger: the multiset of weighted part loads must be identical.
	cf, ci := partLoads(pFresh, w2), partLoads(pIncr, w2)
	sortInt64(cf)
	sortInt64(ci)
	for q := range cf {
		if cf[q] != ci[q] {
			t.Fatalf("sorted part-load multiset differs at %d: %d vs %d", q, ci[q], cf[q])
		}
	}
}

// partLoads is the total weight of every part of p.
func partLoads(p *partition.Partition, w []int64) []int64 {
	load := make([]int64, p.NumParts())
	for v, q := range p.Assignment() {
		load[q] += w[v]
	}
	return load
}

func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestOverlapRelabelIsPermutation pins the relabel table contract: a
// permutation of [0, nparts) for arbitrary label layouts, including parts
// that vanished or appeared between the two assignments.
func TestOverlapRelabelIsPermutation(t *testing.T) {
	cases := []struct {
		prev, cur []int32
		nparts    int
	}{
		{[]int32{0, 0, 1, 1, 2, 2}, []int32{2, 2, 0, 0, 1, 1}, 3},
		{[]int32{0, 0, 0, 0}, []int32{3, 3, 1, 1}, 4},
		{[]int32{0, 1, 2, 3}, []int32{0, 0, 0, 0}, 4},
		{[]int32{1, 1, 1, 1}, []int32{0, 1, 2, 3}, 4},
	}
	for ci, tc := range cases {
		table := overlapRelabel(tc.prev, tc.cur, tc.nparts)
		seen := make([]bool, tc.nparts)
		for _, q := range table {
			if q < 0 || int(q) >= tc.nparts {
				t.Fatalf("case %d: relabel entry %d out of range", ci, q)
			}
			if seen[q] {
				t.Fatalf("case %d: label %d assigned twice", ci, q)
			}
			seen[q] = true
		}
	}
}

// mustMesh builds a cubed-sphere mesh or fails the test.
func mustMesh(tb testing.TB, ne int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
