package check

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/seam"
	"sfccube/internal/sfc"
)

func TestCurveSizes(t *testing.T) {
	want := []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48}
	if got := CurveSizes(48); !reflect.DeepEqual(got, want) {
		t.Errorf("CurveSizes(48) = %v, want %v", got, want)
	}
	if got := CurveSizes(1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("CurveSizes(1) = %v", got)
	}
}

// TestCurveOraclesAllSizes is the acceptance matrix of the curve oracles:
// every curve family (Hilbert, m-Peano, all refinement orders of
// Hilbert-Peano) must be bijective and continuous — on a face and threaded
// over all six cube faces — for every admissible Ne = 2^n * 3^m <= 48.
func TestCurveOraclesAllSizes(t *testing.T) {
	for _, ne := range CurveSizes(48) {
		ne := ne
		t.Run(sizeName(ne), func(t *testing.T) {
			t.Parallel()
			if err := ValidateSchedules(ne); err != nil {
				t.Error(err)
			}
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("%d", n) }

// The oracle must reject structurally invalid curves: corrupt a generated
// curve's visit order and check each defect is caught.
func TestValidateCurveDetectsCorruption(t *testing.T) {
	sched, err := sfc.ScheduleFor(6, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	c := sfc.Generate(sched)
	if err := ValidateCurve(c); err != nil {
		t.Fatalf("pristine curve rejected: %v", err)
	}
	order := c.Order()
	// Swap two non-adjacent cells: breaks continuity (and the rank inverse).
	order[3], order[10] = order[10], order[3]
	if err := ValidateCurve(c); err == nil {
		t.Error("oracle accepted a corrupted visit order")
	}
	order[3], order[10] = order[10], order[3]
	if err := ValidateCurve(c); err != nil {
		t.Fatalf("restored curve rejected: %v", err)
	}
}

func TestValidateCubeCurveDetectsCorruption(t *testing.T) {
	m, err := mesh.New(4)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sfc.ScheduleFor(4, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sfc.NewCubeCurve(m, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCubeCurve(cc, true); err != nil {
		t.Fatalf("pristine cube curve rejected: %v", err)
	}
	order := cc.Order()
	order[5], order[40] = order[40], order[5]
	if err := ValidateCubeCurve(cc, true); err == nil {
		t.Error("oracle accepted a corrupted cube curve")
	}
	order[5], order[40] = order[40], order[5]
}

// Baseline orderings calibrate the oracle's strictness levels: even-sided
// serpentine shares the Hilbert edge-endpoint contract and must pass the
// strict oracle; odd-sided serpentine has diagonal endpoints, so at least
// one face transition degrades or breaks (strict fails, relaxed — which
// tolerates seam degradation but not in-face jumps — passes); Morton is
// discontinuous inside each face (Z-jumps), so both levels must reject it —
// while its bijectivity still holds.
func TestValidateCubeCurveBaselines(t *testing.T) {
	m4, err := mesh.New(4)
	if err != nil {
		t.Fatal(err)
	}
	serp4, err := sfc.NewCubeCurveFromBase(m4, sfc.GenerateSerpentine(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCubeCurve(serp4, true); err != nil {
		t.Errorf("even serpentine rejected by strict oracle: %v", err)
	}
	m5, err := mesh.New(5)
	if err != nil {
		t.Fatal(err)
	}
	serp5, err := sfc.NewCubeCurveFromBase(m5, sfc.GenerateSerpentine(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCubeCurve(serp5, true); err == nil {
		t.Error("odd serpentine passed the strict continuity oracle")
	}
	if err := ValidateCubeCurve(serp5, false); err != nil {
		t.Errorf("odd serpentine rejected by relaxed oracle: %v", err)
	}
	morton, err := sfc.NewCubeCurveFromBase(m4, sfc.GenerateMorton(2)) // 2 levels = 4x4
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCubeCurve(morton, false); err == nil {
		t.Error("Morton order passed the relaxed adjacency oracle")
	}
}

// auditedMethods partitions the unit-cost mesh of face dimension ne into
// nprocs parts with the SFC partitioner and the three METIS-style
// algorithms (seed 1), holds each partition to Audit on the production
// Problem.Stats and to CrossCheckStats on partition.ComputeStats, and
// returns the oracle Metrics per method.
func auditedMethods(t *testing.T, ne, nprocs int) map[string]Metrics {
	t.Helper()
	prob, err := core.NewProblem(ne)
	if err != nil {
		t.Fatal(err)
	}
	g, err := prob.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out := map[string]Metrics{}
	for _, method := range []string{"SFC", "RB", "KWAY", "TV"} {
		p, err := core.Run(context.Background(), method, prob, nprocs, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if p.NumParts() != nprocs {
			t.Fatalf("%s: %d parts, want %d", method, p.NumParts(), nprocs)
		}
		st, err := prob.Stats(p)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		mt, err := Audit(g, p, st, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if err := CrossCheckStats(g, p); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		out[method] = mt
	}
	return out
}

// TestDifferentialMatrix is the acceptance matrix of the partition oracles:
// RB/KWAY/TV and the SFC partitioner at K in {4, 16, 64} on the Table-2 mesh
// (Ne=16). Every partition passes Audit and the stats cross-check, and the
// paper's signature orderings hold within the slack TESTING.md documents:
// SFC balances exactly when NProcs divides the element count, RB's LB is
// within 0.02 of KWAY's and TV's, and KWAY's edgecut is within 1.25x of
// RB's and TV's (at small part counts the multilevel heuristics do not
// strictly dominate each other).
func TestDifferentialMatrix(t *testing.T) {
	const ne = 16
	for _, nprocs := range []int{4, 16, 64} {
		nprocs := nprocs
		t.Run(sizeName(nprocs), func(t *testing.T) {
			t.Parallel()
			m := auditedMethods(t, ne, nprocs)
			if (6*ne*ne)%nprocs == 0 && m["SFC"].LBNelemd != 0 {
				t.Errorf("SFC LB(nelemd)=%g, want exactly 0 when NProcs | K", m["SFC"].LBNelemd)
			}
			for _, other := range []string{"KWAY", "TV"} {
				if m["RB"].LBNelemd > m[other].LBNelemd+0.02 {
					t.Errorf("RB LB %.4f worse than %s LB %.4f beyond slack 0.02",
						m["RB"].LBNelemd, other, m[other].LBNelemd)
				}
			}
			for _, other := range []string{"RB", "TV"} {
				if float64(m["KWAY"].EdgeCut) > 1.25*float64(m[other].EdgeCut) {
					t.Errorf("KWAY edgecut %d exceeds 1.25x %s edgecut %d",
						m["KWAY"].EdgeCut, other, m[other].EdgeCut)
				}
			}
		})
	}
}

// TestPaperRegimeOrderings pins the strict Table-2 orderings at K=768 on
// Ne=16 (2 elements per processor): RB's LB is no worse than KWAY's and
// TV's, and KWAY's edgecut is the lowest of all four methods.
func TestPaperRegimeOrderings(t *testing.T) {
	m := auditedMethods(t, 16, 768)
	for _, other := range []string{"KWAY", "TV"} {
		if m["RB"].LBNelemd > m[other].LBNelemd {
			t.Errorf("RB LB %.4f worse than %s LB %.4f", m["RB"].LBNelemd, other, m[other].LBNelemd)
		}
	}
	for _, other := range []string{"SFC", "RB", "TV"} {
		if m["KWAY"].EdgeCut > m[other].EdgeCut {
			t.Errorf("KWAY edgecut %d above %s edgecut %d", m["KWAY"].EdgeCut, other, m[other].EdgeCut)
		}
	}
}

// Weighted SFC partitions must also satisfy the structural oracle and the
// stats cross-check (non-uniform weights exercise the greedy splitter).
func TestCrossCheckWeightedPartition(t *testing.T) {
	m, err := mesh.New(8)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]int32, m.NumElems())
	for i := range w {
		w[i] = int32(1 + i%7)
	}
	g, err := graph.FromMesh(m, graph.Options{EdgeWeight: 8, CornerWeight: 1, IncludeCorners: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexWeights(w); err != nil {
		t.Fatal(err)
	}
	for _, nparts := range []int{2, 5, 13, 96} {
		p := partition.New(m.NumElems(), nparts)
		for v := 0; v < m.NumElems(); v++ {
			p.SetPart(v, (v*7)%nparts)
		}
		if err := ValidatePartition(g, p); err != nil {
			t.Errorf("nparts=%d: %v", nparts, err)
		}
		if err := CrossCheckStats(g, p); err != nil {
			t.Errorf("nparts=%d: %v", nparts, err)
		}
	}
}

// The structural oracle must reject out-of-range assignments and mismatched
// vertex counts.
func TestValidatePartitionRejectsDefects(t *testing.T) {
	m, err := mesh.New(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := partition.New(m.NumElems(), 4)
	for v := 0; v < m.NumElems(); v++ {
		p.SetPart(v, v%4)
	}
	if err := ValidatePartition(g, p); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	p.SetPart(3, 4) // out of range
	if err := ValidatePartition(g, p); err == nil {
		t.Error("oracle accepted an out-of-range part index")
	}
	p.SetPart(3, -1)
	if err := ValidatePartition(g, p); err == nil {
		t.Error("oracle accepted a negative part index")
	}
	p.SetPart(3, 3)
	small := partition.New(m.NumElems()-1, 4)
	if err := ValidatePartition(g, small); err == nil {
		t.Error("oracle accepted a partition with missing vertices")
	}
}

// ValidateDSS is the black-box assembly oracle; run it across degrees and
// mesh sizes, including a non-factorable Ne (DSS has no 2^n*3^m
// restriction).
func TestValidateDSSMatrix(t *testing.T) {
	for _, cfg := range [][2]int{{1, 3}, {2, 4}, {3, 2}, {5, 3}, {4, 7}} {
		ne, deg := cfg[0], cfg[1]
		g, err := seam.NewGrid(ne, deg, seam.EarthRadius, seam.EarthOmega)
		if err != nil {
			t.Fatal(err)
		}
		d := seam.NewDSS(g)
		if err := ValidateDSS(g, d, 42); err != nil {
			t.Errorf("ne=%d deg=%d: %v", ne, deg, err)
		}
	}
}
