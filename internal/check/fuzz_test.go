package check

import (
	"errors"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/seam"
	"sfccube/internal/sfc"
)

// fuzzSizes is the admissible-size alphabet the fuzz targets draw from: all
// Ne = 2^n * 3^m up to 16. The raw fuzz byte indexes into it, so every input
// is on-domain and the fuzzer spends its budget on the oracles instead of on
// the argument validation of the constructors.
var fuzzSizes = CurveSizes(16)

// FuzzCurveRoundTrip drives the curve oracles over the whole admissible
// (size, refinement-order) space: for each generated input the flat curve
// must be a bijective, continuous, motif-conforming ordering and the
// six-face cube curve threaded from it must stay bijective and seam-
// continuous under the strict oracle.
func FuzzCurveRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0))  // ne=1, PeanoFirst
	f.Add(uint8(3), uint8(1))  // ne=4, HilbertFirst
	f.Add(uint8(5), uint8(2))  // ne=8, Interleaved
	f.Add(uint8(7), uint8(0))  // ne=12, PeanoFirst (mixed 2^2*3)
	f.Add(uint8(8), uint8(25)) // ne=16, order wraps to HilbertFirst
	f.Fuzz(func(t *testing.T, neIdx, orderRaw uint8) {
		ne := fuzzSizes[int(neIdx)%len(fuzzSizes)]
		order := sfc.Order(int(orderRaw) % 3)
		sched, err := sfc.ScheduleFor(ne, order)
		if err != nil {
			t.Fatalf("ne=%d order=%v: %v", ne, order, err)
		}
		c := sfc.Generate(sched)
		if err := ValidateCurve(c); err != nil {
			t.Errorf("ne=%d order=%v flat: %v", ne, order, err)
		}
		m, err := mesh.New(ne)
		if err != nil {
			t.Fatalf("mesh ne=%d: %v", ne, err)
		}
		cc, err := sfc.NewCubeCurve(m, sched)
		if err != nil {
			t.Fatalf("cube curve ne=%d order=%v: %v", ne, order, err)
		}
		if err := ValidateCubeCurve(cc, true); err != nil {
			t.Errorf("ne=%d order=%v cube: %v", ne, order, err)
		}
	})
}

// FuzzPartitionValid drives the partition oracles: every SFC partition of an
// admissible mesh must pass the structural oracle, the stats cross-check and
// the perfect-balance law (LB = 0 whenever NProcs divides the element
// count); and an arbitrary seed-scattered assignment — any function from
// elements to parts is a structurally valid partition — must keep the
// structural oracle and the stats cross-check in agreement too.
func FuzzPartitionValid(f *testing.F) {
	f.Add(uint8(5), uint16(16), int64(1))   // ne=8, K=384, 16 parts
	f.Add(uint8(3), uint16(7), int64(42))   // ne=4, ragged part count
	f.Add(uint8(0), uint16(1), int64(0))    // smallest mesh, one part
	f.Add(uint8(8), uint16(767), int64(9))  // paper regime: ne=16 on 768 parts
	f.Add(uint8(4), uint16(1000), int64(3)) // nprocs wraps to <= K
	f.Fuzz(func(t *testing.T, neIdx uint8, nprocsRaw uint16, seed int64) {
		ne := fuzzSizes[int(neIdx)%len(fuzzSizes)]
		k := 6 * ne * ne
		nprocs := 1 + int(nprocsRaw)%k
		res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs})
		if err != nil {
			t.Fatalf("ne=%d nprocs=%d: %v", ne, nprocs, err)
		}
		g, err := graph.FromMesh(res.Mesh, graph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePartition(g, res.Partition); err != nil {
			t.Errorf("ne=%d nprocs=%d SFC: %v", ne, nprocs, err)
		}
		if err := CrossCheckStats(g, res.Partition); err != nil {
			t.Errorf("ne=%d nprocs=%d SFC: %v", ne, nprocs, err)
		}
		mt, err := ComputeMetrics(g, res.Partition)
		if err != nil {
			t.Fatal(err)
		}
		if k%nprocs == 0 && mt.LBNelemd != 0 {
			t.Errorf("ne=%d nprocs=%d: SFC LB(nelemd)=%g, want 0 when NProcs | K", ne, nprocs, mt.LBNelemd)
		}

		// Scattered partition: a cheap LCG over the seed assigns parts
		// arbitrarily; the structural oracle must accept it and the two
		// stats implementations must still agree exactly.
		p := partition.New(k, nprocs)
		x := uint64(seed)*6364136223846793005 + 1442695040888963407
		for v := 0; v < k; v++ {
			x = x*6364136223846793005 + 1442695040888963407
			p.SetPart(v, int((x>>33)%uint64(nprocs)))
		}
		if err := ValidatePartition(g, p); err != nil {
			t.Errorf("ne=%d nprocs=%d scattered: %v", ne, nprocs, err)
		}
		if err := CrossCheckStats(g, p); err != nil {
			t.Errorf("ne=%d nprocs=%d scattered: %v", ne, nprocs, err)
		}
	})
}

// FuzzDSSPlan drives the assembly oracle over (mesh size, polynomial degree,
// field seed): the exchange plan must identify exactly the Euler-count of
// global nodes, group only geometrically coincident points, and project any
// random field onto the continuous subspace exactly (zero discontinuity,
// conserved mass integral, idempotence).
func FuzzDSSPlan(f *testing.F) {
	f.Add(uint8(2), uint8(4), int64(42))
	f.Add(uint8(1), uint8(2), int64(0))
	f.Add(uint8(5), uint8(3), int64(7))  // non-factorable ne=5: DSS has no 2^n*3^m restriction
	f.Add(uint8(3), uint8(7), int64(-1)) // high degree
	f.Fuzz(func(t *testing.T, neRaw, degRaw uint8, seed int64) {
		ne := 1 + int(neRaw)%6
		deg := 2 + int(degRaw)%6
		g, err := seam.NewGrid(ne, deg, seam.EarthRadius, seam.EarthOmega)
		if err != nil {
			t.Fatalf("ne=%d deg=%d: %v", ne, deg, err)
		}
		d := seam.NewDSS(g)
		if err := ValidateDSS(g, d, seed); err != nil {
			t.Errorf("ne=%d deg=%d seed=%d: %v", ne, deg, seed, err)
		}
	})
}

// FuzzWeightedSplit drives the weighted SFC split over (mesh size, part
// count, weight stream): for any non-negative weight vector with positive
// total, the partition must stay structurally valid, every part must occupy
// one contiguous run of curve ranks, and the weighted statistics
// (PartWeights, LBWeighted) must agree exactly with an independent
// recomputation from the raw assignment. Zero weights (inactive elements)
// are injected on a fuzzed stride; malformed vectors must fail with the
// typed errors and never produce a partition.
func FuzzWeightedSplit(f *testing.F) {
	f.Add(uint8(5), uint16(16), int64(1), uint8(0))   // ne=8, 16 parts, no zeros
	f.Add(uint8(3), uint16(7), int64(42), uint8(2))   // ragged parts, zeros every 3rd
	f.Add(uint8(0), uint16(1), int64(0), uint8(0))    // smallest mesh, one part
	f.Add(uint8(8), uint16(767), int64(9), uint8(11)) // paper regime, sparse zeros
	f.Fuzz(func(t *testing.T, neIdx uint8, nprocsRaw uint16, seed int64, zeroStride uint8) {
		ne := fuzzSizes[int(neIdx)%len(fuzzSizes)]
		k := 6 * ne * ne
		nprocs := 1 + int(nprocsRaw)%k

		// LCG weight stream in [0, 64), with zeros forced on a stride.
		w := make([]int64, k)
		var total int64
		x := uint64(seed)*6364136223846793005 + 1442695040888963407
		for v := range w {
			x = x*6364136223846793005 + 1442695040888963407
			w[v] = int64((x >> 33) % 64)
			if zeroStride > 0 && v%(int(zeroStride)+1) == 0 {
				w[v] = 0
			}
			total += w[v]
		}
		if total == 0 {
			w[k/2] = 1 // keep the vector on-domain; the error paths are pinned below
		}

		res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs, Weights: w})
		if err != nil {
			t.Fatalf("ne=%d nprocs=%d: %v", ne, nprocs, err)
		}
		g, err := graph.FromMesh(res.Mesh, graph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := res.Partition
		if err := ValidatePartition(g, p); err != nil {
			t.Errorf("ne=%d nprocs=%d: %v", ne, nprocs, err)
		}

		// Contiguity: walking the curve, the part index never decreases —
		// every part is one contiguous curve segment.
		prev := 0
		byRank := make([]int, k)
		for v := 0; v < k; v++ {
			rank, _ := res.Curve.ElemXF(mesh.ElemID(v))
			byRank[rank] = p.Part(v)
		}
		for rank, part := range byRank {
			if part < prev {
				t.Fatalf("ne=%d nprocs=%d: part drops %d -> %d at rank %d — split not contiguous",
					ne, nprocs, prev, part, rank)
			}
			prev = part
		}

		// Weighted stats agree with an independent recomputation.
		st, err := partition.ComputeStatsWeighted(g, p, w)
		if err != nil {
			t.Fatal(err)
		}
		totals := make([]int64, nprocs)
		for v := 0; v < k; v++ {
			totals[p.Part(v)] += w[v]
		}
		for q, want := range totals {
			if st.PartWeights[q] != want {
				t.Fatalf("part %d: PartWeights=%d, recomputed %d", q, st.PartWeights[q], want)
			}
		}
		if lb := partition.LoadBalance(totals); st.LBWeighted != lb {
			t.Fatalf("LBWeighted=%g, recomputed %g", st.LBWeighted, lb)
		}
		for q, n := range st.Nelemd {
			if n == 0 {
				t.Fatalf("part %d is empty — contiguous split must keep every part non-empty", q)
			}
		}

		// Typed error paths: a negative entry and an all-zero vector must
		// fail before any partition exists.
		bad := append([]int64(nil), w...)
		bad[int(x>>40)%k] = -1
		var we *partition.WeightError
		if _, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs, Weights: bad}); !errors.As(err, &we) {
			t.Errorf("negative weight: got %v, want *partition.WeightError", err)
		}
		var ze *partition.ZeroTotalWeightError
		if _, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nprocs, Weights: make([]int64, k)}); !errors.As(err, &ze) {
			t.Errorf("all-zero weights: got %v, want *partition.ZeroTotalWeightError", err)
		}
	})
}
