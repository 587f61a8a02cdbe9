package sfc

import "testing"

func TestSerpentineBijectiveContinuous(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 9, 16} {
		c := GenerateSerpentine(p)
		if c.Len() != p*p {
			t.Fatalf("p=%d: len %d", p, c.Len())
		}
		seen := map[Point]bool{}
		for r := 0; r < c.Len(); r++ {
			pt := c.At(r)
			if seen[pt] {
				t.Fatalf("p=%d: revisit %v", p, pt)
			}
			seen[pt] = true
			if c.Rank(pt.X, pt.Y) != r {
				t.Fatalf("p=%d: rank mismatch", p)
			}
		}
		if !c.IsContinuous() {
			t.Errorf("p=%d: serpentine not continuous", p)
		}
		if entry, _ := c.Endpoints(); entry != (Point{0, 0}) {
			t.Errorf("p=%d: entry %v", p, entry)
		}
	}
}

func TestMortonBijective(t *testing.T) {
	for _, lv := range []int{0, 1, 2, 3, 4} {
		c := GenerateMorton(lv)
		p := 1 << lv
		if c.Side() != p || c.Len() != p*p {
			t.Fatalf("levels=%d: side %d len %d", lv, c.Side(), c.Len())
		}
		seen := map[Point]bool{}
		for r := 0; r < c.Len(); r++ {
			pt := c.At(r)
			if seen[pt] {
				t.Fatalf("levels=%d: revisit %v", lv, pt)
			}
			seen[pt] = true
			if c.Rank(pt.X, pt.Y) != r {
				t.Fatalf("levels=%d: rank mismatch", lv)
			}
		}
	}
}

func TestMortonKnownOrder(t *testing.T) {
	c := GenerateMorton(1) // 2x2 Z: (0,0) (1,0) (0,1) (1,1)
	want := []Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	for i, w := range want {
		if c.At(i) != w {
			t.Errorf("rank %d: %v, want %v", i, c.At(i), w)
		}
	}
	if GenerateMorton(2).IsContinuous() {
		t.Error("Morton order must not be continuous (that is its deficiency)")
	}
}

// Morton has the same quadrant-block locality as Hilbert: each rank quarter
// occupies one quadrant.
func TestMortonQuadrantLocality(t *testing.T) {
	c := GenerateMorton(3)
	quarter := c.Len() / 4
	for q := 0; q < 4; q++ {
		minX, minY, maxX, maxY := 8, 8, -1, -1
		for r := q * quarter; r < (q+1)*quarter; r++ {
			p := c.At(r)
			if p.X < minX {
				minX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		if maxX-minX >= 4 || maxY-minY >= 4 {
			t.Errorf("quarter %d not a quadrant", q)
		}
	}
}

func TestCubeCurveFromSerpentine(t *testing.T) {
	for _, ne := range []int{2, 3, 4, 8, 9} {
		m := mustMesh(t, ne)
		cc, err := NewCubeCurveFromBase(m, GenerateSerpentine(ne))
		if err != nil {
			t.Fatalf("ne=%d: %v", ne, err)
		}
		if cc.Schedule() != nil {
			t.Error("baseline curve carries a refinement schedule")
		}
		// Serpentine is continuous per face. For even Ne the endpoints
		// land on one edge and the chain is globally edge-continuous;
		// for odd Ne they are diagonal and face transitions connect
		// through corner points.
		if ne%2 == 0 && !cc.IsContinuous() {
			t.Errorf("ne=%d: serpentine cube curve not continuous", ne)
		}
		// For odd Ne the per-face endpoints are diagonal corners and a
		// break-free chain is impossible (no Eulerian path in K4, see
		// solveOrientations); the constructor must achieve the minimum
		// of exactly one broken transition.
		if ne%2 == 1 {
			if got := countBreaks(cc); got != 1 {
				t.Errorf("ne=%d: %d broken transitions, want exactly 1", ne, got)
			}
		}
		seen := make([]bool, m.NumElems())
		for r := 0; r < cc.Len(); r++ {
			if seen[cc.At(r)] {
				t.Fatalf("ne=%d: element revisited", ne)
			}
			seen[cc.At(r)] = true
		}
	}
}

// countBreaks returns the number of consecutive curve pairs that are
// neither edge- nor corner-adjacent.
func countBreaks(cc *CubeCurve) int {
	m := cc.m
	breaks := 0
	for i := 1; i < cc.Len(); i++ {
		a, b := cc.At(i-1), cc.At(i)
		if !isEdgeNeighbor(m, a, b) && !isCornerNeighbor(m, a, b) {
			breaks++
		}
	}
	return breaks
}

func TestCubeCurveFromMorton(t *testing.T) {
	m := mustMesh(t, 8)
	cc, err := NewCubeCurveFromBase(m, GenerateMorton(3))
	if err != nil {
		t.Fatal(err)
	}
	// Bijective over all elements even though discontinuous.
	seen := make([]bool, m.NumElems())
	for r := 0; r < cc.Len(); r++ {
		if seen[cc.At(r)] {
			t.Fatal("element revisited")
		}
		seen[cc.At(r)] = true
	}
	if cc.IsContinuous() {
		t.Error("Morton cube curve should be discontinuous")
	}
}

func TestCubeCurveFromBaseSizeMismatch(t *testing.T) {
	m := mustMesh(t, 4)
	if _, err := NewCubeCurveFromBase(m, GenerateSerpentine(5)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// Hilbert must beat both baselines on segment edgecut: better than
// serpentine (locality) and better than Morton (continuity).
func TestHilbertBeatsBaselines(t *testing.T) {
	p := 16
	nseg := 16
	segCut := func(c *Curve) int {
		segOf := func(rank int) int { return rank * nseg / (p * p) }
		cut := 0
		for y := 0; y < p; y++ {
			for x := 0; x < p; x++ {
				if x+1 < p && segOf(c.Rank(x, y)) != segOf(c.Rank(x+1, y)) {
					cut++
				}
				if y+1 < p && segOf(c.Rank(x, y)) != segOf(c.Rank(x, y+1)) {
					cut++
				}
			}
		}
		return cut
	}
	h, err := ScheduleFor(p, PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	hilbert := segCut(Generate(h))
	serp := segCut(GenerateSerpentine(p))
	morton := segCut(GenerateMorton(4))
	if hilbert >= serp {
		t.Errorf("hilbert %d not better than serpentine %d", hilbert, serp)
	}
	if hilbert > morton {
		t.Errorf("hilbert %d worse than morton %d", hilbert, morton)
	}
	t.Logf("segment edgecut: hilbert=%d morton=%d serpentine=%d", hilbert, morton, serp)
}
