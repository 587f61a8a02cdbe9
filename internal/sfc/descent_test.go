package sfc

import (
	"fmt"
	"slices"
	"testing"

	"sfccube/internal/mesh"
)

// refGen is the curve recursion as it was written before fill and the
// oriented tables: one call per cell, straight off motifOf, appending each
// leaf's cell and accumulated orientation. It is the independent reference
// the table-driven recursion (fill) and the descent (Rank, ElemXF) are held
// to.
func refGen(s Schedule, t XF, origin Point, order *[]Point, leaf *[]XF) {
	if len(s) == 0 {
		*order = append(*order, origin)
		*leaf = append(*leaf, t)
		return
	}
	b := s[0].Base()
	child := s[1:].Side()
	for _, mc := range motifOf(s[0]) {
		cell := t.Apply(mc.cell, b)
		refGen(s[1:], t.Compose(mc.child), Point{X: origin.X + cell.X*child, Y: origin.Y + cell.Y*child}, order, leaf)
	}
}

// curveSizes lists every Ne = 2^n 3^m up to bound (check.CurveSizes, which
// this package cannot import).
func curveSizes(bound int) []int {
	var out []int
	for p2 := 1; p2 <= bound; p2 *= 2 {
		for v := p2; v <= bound; v *= 3 {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// TestDescentMatchesRecursion: for every schedule of every admissible size up
// to 48, the order fill writes equals the reference recursion's and Rank
// inverts it cell by cell.
// On the cube, each face's slot is the reference order mapped through the
// face orientation (the two-pass construction fill replaced), and ElemXF
// returns every element's rank and the face orientation composed with the
// reference leaf orientation.
func TestDescentMatchesRecursion(t *testing.T) {
	for _, ne := range curveSizes(48) {
		for ord := Order(0); ord < 3; ord++ {
			sched, err := ScheduleFor(ne, ord)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("ne=%d %v", ne, ord)
			var refOrder []Point
			var refLeaf []XF
			refGen(sched, Identity, Point{}, &refOrder, &refLeaf)
			c := Generate(sched)
			if !slices.Equal(c.Order(), refOrder) {
				t.Fatalf("%s: fill's order differs from the reference recursion", name)
			}
			for r, p := range refOrder {
				if got := c.Rank(p.X, p.Y); got != r {
					t.Fatalf("%s: Rank(%v) = %d, want %d", name, p, got, r)
				}
			}
			m := mustMesh(t, ne)
			cc, err := NewCubeCurve(m, sched)
			if err != nil {
				t.Fatal(err)
			}
			for fi, f := range cc.FacePath() {
				for i, p := range refOrder {
					r := fi*ne*ne + i
					q := cc.xf[f].Apply(p, ne)
					e := m.ID(f, q.X, q.Y)
					if cc.At(r) != e {
						t.Fatalf("%s: At(%d) = %d, want %d", name, r, cc.At(r), e)
					}
					rank, xf := cc.ElemXF(e)
					if want := cc.xf[f].Compose(refLeaf[i]); rank != r || xf != want {
						t.Fatalf("%s: ElemXF(%d) = (%d, %v), want (%d, %v)", name, e, rank, xf, r, want)
					}
				}
			}
		}
	}
}

// TestDescentMatchesRecursionLarge samples the round trip at the sizes the
// service benchmark and the million-element regime run: every 61st rank of
// the flat and the cube curve at Ne=128 and, unless -short, Ne=384.
func TestDescentMatchesRecursionLarge(t *testing.T) {
	sizes := []int{128, 384}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, ne := range sizes {
		for ord := Order(0); ord < 3; ord++ {
			sched, err := ScheduleFor(ne, ord)
			if err != nil {
				t.Fatal(err)
			}
			c := Generate(sched)
			for r := 0; r < c.Len(); r += 61 {
				if p := c.At(r); c.Rank(p.X, p.Y) != r {
					t.Fatalf("ne=%d %v: Rank(At(%d)) = %d", ne, ord, r, c.Rank(p.X, p.Y))
				}
			}
			cc, err := NewCubeCurve(mustMesh(t, ne), sched)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < cc.Len(); r += 61 {
				if got, _ := cc.ElemXF(cc.At(r)); got != r {
					t.Fatalf("ne=%d %v: cube ElemXF(At(%d)) ranks it %d", ne, ord, r, got)
				}
			}
		}
	}
}

// TestBaselineRankClosedForms: the serpentine and Morton ranks are closed
// forms, not tables; they must invert the stored orders, flat and on the
// cube (where the face orientation is undone first and ElemXF reports the
// face orientation alone).
func TestBaselineRankClosedForms(t *testing.T) {
	bases := map[string]*Curve{"morton8": GenerateMorton(3)}
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		bases[fmt.Sprintf("serpentine%d", p)] = GenerateSerpentine(p)
	}
	for name, base := range bases {
		for r := 0; r < base.Len(); r++ {
			if p := base.At(r); base.Rank(p.X, p.Y) != r {
				t.Fatalf("%s: Rank(At(%d)) = %d", name, r, base.Rank(p.X, p.Y))
			}
		}
		cc, err := NewCubeCurveFromBase(mustMesh(t, base.Side()), base)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cc.Len(); r++ {
			e := cc.At(r)
			rank, xf := cc.ElemXF(e)
			if rank != r || xf != cc.xf[cc.m.Elem(e).Face] {
				t.Fatalf("%s: ElemXF(At(%d)) = (%d, %v)", name, r, rank, xf)
			}
		}
	}
}

// TestNe1ElemXF keeps the Ne=1 special case observable where amr reads it:
// each single-cell face reports the orientation its one-level refinement is
// solved with, and descending one Hilbert level from it lands on the Ne=2
// curve.
func TestNe1ElemXF(t *testing.T) {
	m1, m2 := mustMesh(t, 1), mustMesh(t, 2)
	c1, err := NewCubeCurve(m1, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCubeCurve(m2, Schedule{Hilbert})
	if err != nil {
		t.Fatal(err)
	}
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		rank, xf := c1.ElemXF(m1.ID(f, 0, 0))
		if xf != c2.xf[f] {
			t.Fatalf("face %d: Ne=1 ElemXF %v, refinement is oriented %v", f, xf, c2.xf[f])
		}
		for _, q := range []Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
			digit, _ := Descend(xf, Hilbert, q)
			if got := c2.At(4*rank + digit); got != m2.ID(f, q.X, q.Y) {
				t.Fatalf("face %d child %v: refined curve visits %d at rank %d", f, q, got, 4*rank+digit)
			}
		}
	}
}
