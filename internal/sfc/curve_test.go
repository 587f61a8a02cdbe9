package sfc

import (
	"testing"
	"testing/quick"
)

func TestXFApplyBasics(t *testing.T) {
	p := Point{1, 0}
	s := 4
	cases := []struct {
		xf   XF
		want Point
	}{
		{Identity, Point{1, 0}},
		{Transpose, Point{0, 1}},
		{MirrorX, Point{2, 0}},
		{MirrorY, Point{1, 3}},
		{Rotate180, Point{2, 3}},
		{AntiTranspose, Point{3, 2}},
		{RotateCW, Point{3, 1}},
		{RotateCCW, Point{0, 2}},
	}
	for _, c := range cases {
		if got := c.xf.Apply(p, s); got != c.want {
			t.Errorf("%+v.Apply(%v) = %v, want %v", c.xf, p, got, c.want)
		}
	}
}

func TestXFApplyIsBijection(t *testing.T) {
	s := 5
	for _, xf := range AllXF {
		seen := map[Point]bool{}
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				q := xf.Apply(Point{x, y}, s)
				if q.X < 0 || q.X >= s || q.Y < 0 || q.Y >= s {
					t.Fatalf("%+v maps (%d,%d) out of range: %v", xf, x, y, q)
				}
				if seen[q] {
					t.Fatalf("%+v not injective at %v", xf, q)
				}
				seen[q] = true
			}
		}
	}
}

// Property: Compose(t,u).Apply == t.Apply ∘ u.Apply, for all pairs and sizes.
func TestXFComposeMatchesApplication(t *testing.T) {
	for _, a := range AllXF {
		for _, b := range AllXF {
			c := a.Compose(b)
			for _, s := range []int{1, 2, 3, 5, 6} {
				for y := 0; y < s; y++ {
					for x := 0; x < s; x++ {
						p := Point{x, y}
						want := a.Apply(b.Apply(p, s), s)
						if got := c.Apply(p, s); got != want {
							t.Fatalf("Compose(%+v,%+v).Apply(%v,%d)=%v want %v",
								a, b, p, s, got, want)
						}
					}
				}
			}
		}
	}
}

func TestXFInverse(t *testing.T) {
	for _, a := range AllXF {
		inv := a.Inverse()
		if got := a.Compose(inv); got != Identity {
			t.Errorf("%+v.Compose(inverse) = %+v, want identity", a, got)
		}
		if got := inv.Compose(a); got != Identity {
			t.Errorf("inverse.Compose(%+v) = %+v, want identity", a, got)
		}
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				if p := (Point{x, y}); inv.Apply(a.Apply(p, 5), 5) != p {
					t.Errorf("%+v.Inverse() does not undo Apply at %v", a, p)
				}
			}
		}
	}
}

func TestXFGroupClosure(t *testing.T) {
	in := map[XF]bool{}
	for _, a := range AllXF {
		in[a] = true
	}
	for _, a := range AllXF {
		for _, b := range AllXF {
			if !in[a.Compose(b)] {
				t.Fatalf("composition %+v∘%+v left D4", a, b)
			}
		}
	}
}

// The motifs themselves must be continuous and enter/exit at the canonical
// corners; this pins down the major/joiner vector tables of Figures 2 and 4.
func TestMotifContinuity(t *testing.T) {
	for _, k := range []Kind{Hilbert, Peano} {
		cells := motifOf(k)
		b := k.Base()
		if len(cells) != b*b {
			t.Fatalf("%v motif has %d cells, want %d", k, len(cells), b*b)
		}
		if cells[0].cell != (Point{0, 0}) {
			t.Errorf("%v motif entry cell %v, want (0,0)", k, cells[0].cell)
		}
		if cells[len(cells)-1].cell != (Point{b - 1, 0}) {
			t.Errorf("%v motif exit cell %v, want (%d,0)", k, cells[len(cells)-1].cell, b-1)
		}
		seen := map[Point]bool{}
		for i, mc := range cells {
			if seen[mc.cell] {
				t.Fatalf("%v motif revisits %v", k, mc.cell)
			}
			seen[mc.cell] = true
			if i == 0 {
				continue
			}
			if dx, dy := mc.cell.X-cells[i-1].cell.X, mc.cell.Y-cells[i-1].cell.Y; dx*dx+dy*dy != 1 {
				t.Fatalf("%v motif jump from %v to %v", k, cells[i-1].cell, mc.cell)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Hilbert.String() != "Hilbert" || Peano.String() != "Peano" {
		t.Error("Kind.String wrong")
	}
	if Hilbert.Base() != 2 || Peano.Base() != 3 {
		t.Error("Kind.Base wrong")
	}
}

func TestScheduleSide(t *testing.T) {
	cases := []struct {
		s    Schedule
		want int
	}{
		{Schedule{}, 1},
		{Schedule{Hilbert}, 2},
		{Schedule{Peano}, 3},
		{Schedule{Hilbert, Hilbert, Hilbert}, 8},
		{Schedule{Peano, Peano}, 9},
		{Schedule{Peano, Hilbert}, 6},
		{Schedule{Hilbert, Peano, Peano}, 18},
	}
	for _, c := range cases {
		if got := c.s.Side(); got != c.want {
			t.Errorf("%v.Side() = %d, want %d", c.s, got, c.want)
		}
	}
}

// curveInvariants checks bijectivity, continuity, and canonical endpoints.
func curveInvariants(t *testing.T, s Schedule) {
	t.Helper()
	c := Generate(s)
	p := c.Side()
	if c.Len() != p*p {
		t.Fatalf("%v: Len=%d, want %d", s, c.Len(), p*p)
	}
	seen := map[Point]bool{}
	for r := 0; r < c.Len(); r++ {
		pt := c.At(r)
		if pt.X < 0 || pt.X >= p || pt.Y < 0 || pt.Y >= p {
			t.Fatalf("%v: rank %d out of range: %v", s, r, pt)
		}
		if seen[pt] {
			t.Fatalf("%v: cell %v visited twice", s, pt)
		}
		seen[pt] = true
		if c.Rank(pt.X, pt.Y) != r {
			t.Fatalf("%v: Rank(At(%d)) = %d", s, r, c.Rank(pt.X, pt.Y))
		}
	}
	if !c.IsContinuous() {
		t.Fatalf("%v: curve not continuous", s)
	}
	entry, exit := c.Endpoints()
	if entry != (Point{0, 0}) {
		t.Errorf("%v: entry %v, want (0,0)", s, entry)
	}
	if exit != (Point{p - 1, 0}) {
		t.Errorf("%v: exit %v, want (%d,0)", s, exit, p-1)
	}
}

func TestHilbertCurves(t *testing.T) {
	for n := 0; n <= 6; n++ {
		s := make(Schedule, n)
		for i := range s {
			s[i] = Hilbert
		}
		curveInvariants(t, s)
	}
}

func TestPeanoCurves(t *testing.T) {
	for m := 0; m <= 4; m++ {
		s := make(Schedule, m)
		for i := range s {
			s[i] = Peano
		}
		curveInvariants(t, s)
	}
}

func TestHilbertPeanoCurves(t *testing.T) {
	schedules := []Schedule{
		{Peano, Hilbert},                 // 6, the paper's Figure 5
		{Hilbert, Peano},                 // 6, reversed order
		{Peano, Hilbert, Hilbert},        // 12
		{Hilbert, Peano, Peano},          // 18 (K=1944 case)
		{Peano, Peano, Hilbert},          // 18
		{Peano, Hilbert, Peano},          // 18
		{Hilbert, Hilbert, Peano, Peano}, // 36
		{Peano, Hilbert, Peano, Hilbert}, // 36
	}
	for _, s := range schedules {
		curveInvariants(t, s)
	}
}

// The level-1 Hilbert curve must be the canonical U shape of Figure 2a.
func TestHilbertLevel1Shape(t *testing.T) {
	c := Generate(Schedule{Hilbert})
	want := []Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for i, w := range want {
		if c.At(i) != w {
			t.Errorf("rank %d: %v, want %v", i, c.At(i), w)
		}
	}
}

// The level-1 m-Peano curve must be the meander of Figure 4a.
func TestPeanoLevel1Shape(t *testing.T) {
	c := Generate(Schedule{Peano})
	want := []Point{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}, {2, 1}, {1, 1}, {1, 0}, {2, 0}}
	for i, w := range want {
		if c.At(i) != w {
			t.Errorf("rank %d: %v, want %v", i, c.At(i), w)
		}
	}
}

// Nesting property: on a level-n Hilbert curve, the cells of each half of the
// rank range occupy contiguous blocks (each quadrant is visited entirely
// before moving on). This is the locality property that makes SFC partitions
// compact.
func TestHilbertQuadrantLocality(t *testing.T) {
	c := Generate(Schedule{Hilbert, Hilbert, Hilbert}) // 8x8
	quarter := c.Len() / 4
	for q := 0; q < 4; q++ {
		// All cells of this rank quarter must fall in a single 4x4 block.
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
			t.Errorf("rank quarter %d spans (%d..%d, %d..%d), not a 4x4 block",
				q, minX, maxX, minY, maxY)
		}
	}
}

func TestFactor(t *testing.T) {
	cases := []struct {
		p      int
		n2, n3 int
		ok     bool
	}{
		{1, 0, 0, true}, {2, 1, 0, true}, {3, 0, 1, true}, {4, 2, 0, true},
		{6, 1, 1, true}, {8, 3, 0, true}, {9, 0, 2, true}, {12, 2, 1, true},
		{16, 4, 0, true}, {18, 1, 2, true}, {24, 3, 1, true}, {36, 2, 2, true},
		{5, 0, 0, false}, {7, 0, 0, false}, {10, 0, 0, false}, {14, 0, 0, false},
		{0, 0, 0, false}, {-4, 0, 0, false},
	}
	for _, c := range cases {
		n2, n3, err := Factor(c.p)
		if c.ok != (err == nil) {
			t.Errorf("Factor(%d) err = %v, want ok=%v", c.p, err, c.ok)
			continue
		}
		if c.ok && (n2 != c.n2 || n3 != c.n3) {
			t.Errorf("Factor(%d) = (%d,%d), want (%d,%d)", c.p, n2, n3, c.n2, c.n3)
		}
	}
}

func TestScheduleFor(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 36, 48, 54} {
		for _, o := range []Order{PeanoFirst, HilbertFirst, Interleaved} {
			s, err := ScheduleFor(p, o)
			if err != nil {
				t.Fatalf("ScheduleFor(%d,%v): %v", p, o, err)
			}
			if s.Side() != p {
				t.Errorf("ScheduleFor(%d,%v).Side() = %d", p, o, s.Side())
			}
			curveInvariants(t, s)
		}
	}
	if _, err := ScheduleFor(10, PeanoFirst); err == nil {
		t.Error("ScheduleFor(10) should fail")
	}
}

func TestScheduleForOrders(t *testing.T) {
	s, _ := ScheduleFor(18, PeanoFirst)
	if s.String() != "Peano·Peano·Hilbert" {
		t.Errorf("PeanoFirst 18: %v", s)
	}
	s, _ = ScheduleFor(18, HilbertFirst)
	if s.String() != "Hilbert·Peano·Peano" {
		t.Errorf("HilbertFirst 18: %v", s)
	}
	s, _ = ScheduleFor(36, Interleaved)
	if s.String() != "Peano·Hilbert·Peano·Hilbert" {
		t.Errorf("Interleaved 36: %v", s)
	}
	if (Schedule{}).String() != "(empty)" {
		t.Error("empty schedule string")
	}
}

// Property: Rank and At are inverse bijections for random schedules.
func TestRankAtInverseProperty(t *testing.T) {
	curves := []*Curve{
		Generate(Schedule{Hilbert, Hilbert}),
		Generate(Schedule{Peano, Hilbert}),
		Generate(Schedule{Hilbert, Peano}),
	}
	f := func(raw uint32) bool {
		for _, c := range curves {
			r := int(raw) % c.Len()
			p := c.At(r)
			if c.Rank(p.X, p.Y) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Generation is deterministic.
func TestGenerateDeterministic(t *testing.T) {
	s := Schedule{Peano, Hilbert, Hilbert}
	a, b := Generate(s), Generate(s)
	for r := 0; r < a.Len(); r++ {
		if a.At(r) != b.At(r) {
			t.Fatalf("rank %d differs", r)
		}
	}
}

// Locality: splitting the curve into equal contiguous segments must cut far
// fewer grid edges than splitting a row-major ordering the same way; this is
// the property that gives SFC partitions low edgecut.
func TestHilbertLocalityBeatsRowMajor(t *testing.T) {
	c := Generate(Schedule{Hilbert, Hilbert, Hilbert, Hilbert}) // 16x16
	p := c.Side()
	nseg := 16
	segOf := func(rank int) int { return rank * nseg / (p * p) }
	cutEdges := func(rankOf func(x, y int) int) int {
		cut := 0
		for y := 0; y < p; y++ {
			for x := 0; x < p; x++ {
				if x+1 < p && segOf(rankOf(x, y)) != segOf(rankOf(x+1, y)) {
					cut++
				}
				if y+1 < p && segOf(rankOf(x, y)) != segOf(rankOf(x, y+1)) {
					cut++
				}
			}
		}
		return cut
	}
	hilbertCut := cutEdges(c.Rank)
	rowMajorCut := cutEdges(func(x, y int) int { return y*p + x })
	if hilbertCut >= rowMajorCut {
		t.Errorf("hilbert segment edgecut %d not better than row-major %d",
			hilbertCut, rowMajorCut)
	}
}
