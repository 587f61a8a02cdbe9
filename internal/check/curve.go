package check

import (
	"fmt"
	"math"

	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

// ValidateCurve checks a single-face curve from first principles:
//
//   - bijectivity: the rank -> cell map visits every cell of the P x P grid
//     exactly once, and the cell -> rank map is its exact inverse (both
//     directions of the round trip are exercised). The two are independent
//     computations — the order is what the recursion wrote, the rank what a
//     descent of the schedule (or a baseline's closed form) finds — so the
//     round trip checks each against the other, not a table against the
//     loop that filled it;
//   - continuity: consecutive cells are grid-adjacent (Manhattan distance
//     1), recomputed here rather than trusting Curve.IsContinuous;
//   - the motif contract: the curve enters at the bottom-left cell (0,0)
//     and exits at the bottom-right cell (P-1,0), the invariant that lets
//     Hilbert and m-Peano levels nest and lets the cubed-sphere constructor
//     chain faces.
func ValidateCurve(c *sfc.Curve) error {
	p := c.Side()
	if c.Len() != p*p {
		return fmt.Errorf("check: curve covers %d cells, want %d", c.Len(), p*p)
	}
	visited := make([]int, p*p)
	for r := 0; r < c.Len(); r++ {
		pt := c.At(r)
		if pt.X < 0 || pt.X >= p || pt.Y < 0 || pt.Y >= p {
			return fmt.Errorf("check: rank %d maps to out-of-grid cell (%d,%d)", r, pt.X, pt.Y)
		}
		visited[pt.Y*p+pt.X]++
		if got := c.Rank(pt.X, pt.Y); got != r {
			return fmt.Errorf("check: round trip broken: At(%d)=(%d,%d) but Rank(%d,%d)=%d",
				r, pt.X, pt.Y, pt.X, pt.Y, got)
		}
	}
	for y := 0; y < p; y++ {
		for x := 0; x < p; x++ {
			if n := visited[y*p+x]; n != 1 {
				return fmt.Errorf("check: cell (%d,%d) visited %d times", x, y, n)
			}
			r := c.Rank(x, y)
			if r < 0 || r >= c.Len() {
				return fmt.Errorf("check: Rank(%d,%d)=%d out of range", x, y, r)
			}
			if pt := c.At(r); pt.X != x || pt.Y != y {
				return fmt.Errorf("check: inverse broken: Rank(%d,%d)=%d but At(%d)=(%d,%d)",
					x, y, r, r, pt.X, pt.Y)
			}
		}
	}
	for r := 1; r < c.Len(); r++ {
		a, b := c.At(r-1), c.At(r)
		if d := iabs(a.X-b.X) + iabs(a.Y-b.Y); d != 1 {
			return fmt.Errorf("check: ranks %d->%d jump from (%d,%d) to (%d,%d) (distance %d)",
				r-1, r, a.X, a.Y, b.X, b.Y, d)
		}
	}
	entry, exit := c.At(0), c.At(c.Len()-1)
	if entry != (sfc.Point{X: 0, Y: 0}) {
		return fmt.Errorf("check: curve enters at (%d,%d), want (0,0)", entry.X, entry.Y)
	}
	if p > 1 && exit != (sfc.Point{X: p - 1, Y: 0}) {
		return fmt.Errorf("check: curve exits at (%d,%d), want (%d,0)", exit.X, exit.Y, p-1)
	}
	return nil
}

// sharedCorners counts the corner-node keys two elements have in common,
// recomputed from the exact integer node keys on the cube surface. Two
// elements sharing 2 keys share an element edge; sharing exactly 1 key makes
// them corner neighbours. This is independent of the mesh's precomputed
// adjacency lists, so it double-checks both the curve and the topology.
func sharedCorners(m *mesh.Mesh, a, b mesh.ElemID) int {
	n := 0
	for c := range 4 {
		x := m.PointKey(a, 1, c%2, c/2)
		for d := range 4 {
			if x == m.PointKey(b, 1, d%2, d/2) {
				n++
			}
		}
	}
	return n
}

// ValidateCubeCurve checks a six-face cubed-sphere curve:
//
//   - bijectivity over all 6*Ne^2 elements (every element visited exactly
//     once, and ElemXF's descent from the face root ranks each element where
//     the recursion's visit order, At, put it);
//   - adjacency of consecutive curve points, both inside a face and across
//     cube-face seams, established from the exact integer corner-node keys
//     (two shared keys = edge adjacency);
//   - when requireContinuous is true — as it must be for every curve of the
//     Hilbert/Peano family — any transition weaker than edge adjacency is an
//     error. The relaxed mode mirrors the graceful degradation the cube
//     constructor guarantees for baseline orderings (see
//     sfc.NewCubeCurveFromBase): inside a face every step must still touch
//     (share at least one corner node — Morton's Z-jumps fail this), while
//     face-to-face transitions may degrade arbitrarily. For base orderings
//     with diagonal endpoints at least one broken seam is unavoidable: a
//     break-free face chain would be an Eulerian path in K4, which does not
//     exist.
func ValidateCubeCurve(cc *sfc.CubeCurve, requireContinuous bool) error {
	// The mesh is rebuilt from the element count, not taken from the curve.
	k := cc.Len()
	m, err := mesh.New(int(math.Round(math.Sqrt(float64(k) / 6))))
	if err != nil || m.NumElems() != k {
		return fmt.Errorf("check: cube curve covers %d elements, which is no 6*Ne^2", k)
	}
	visited := make([]int, k)
	for r := 0; r < k; r++ {
		e := cc.At(r)
		if e < 0 || int(e) >= k {
			return fmt.Errorf("check: rank %d maps to invalid element %d", r, e)
		}
		visited[e]++
		if got, _ := cc.ElemXF(e); got != r {
			return fmt.Errorf("check: round trip broken: At(%d)=%d but ElemXF(%d) ranks it %d", r, e, e, got)
		}
	}
	for e := 0; e < k; e++ {
		if visited[e] != 1 {
			return fmt.Errorf("check: element %d visited %d times", e, visited[e])
		}
	}
	for r := 1; r < k; r++ {
		a, b := cc.At(r-1), cc.At(r)
		shared := sharedCorners(m, a, b)
		ea, eb := m.Elem(a), m.Elem(b)
		seam := ""
		if ea.Face != eb.Face {
			seam = fmt.Sprintf(" (across seam %v->%v)", ea.Face, eb.Face)
		}
		switch {
		case shared >= 2:
			// Edge-adjacent: fully continuous transition.
		case !requireContinuous && (shared == 1 || ea.Face != eb.Face):
			// Relaxed mode: corner adjacency is acceptable anywhere, and
			// seam transitions may break entirely (unavoidable for
			// diagonal-endpoint bases); a 0-corner jump inside a face is
			// still rejected.
		default:
			return fmt.Errorf("check: ranks %d->%d: elements %d and %d share %d corner nodes%s",
				r-1, r, a, b, shared, seam)
		}
	}
	return nil
}

// ValidateSchedules generates and validates every curve family the paper
// defines for face dimension ne — Hilbert for 2^n, m-Peano for 3^m, and all
// three refinement orders of the nested Hilbert-Peano curve for mixed sizes —
// first on the flat P x P face, then threaded over the six cube faces. ne
// must be of the form 2^n * 3^m.
func ValidateSchedules(ne int) error {
	if _, _, err := sfc.Factor(ne); err != nil {
		return err
	}
	m, err := mesh.New(ne)
	if err != nil {
		return err
	}
	for _, order := range []sfc.Order{sfc.PeanoFirst, sfc.HilbertFirst, sfc.Interleaved} {
		sched, err := sfc.ScheduleFor(ne, order)
		if err != nil {
			return fmt.Errorf("check: ne=%d %v: %w", ne, order, err)
		}
		if got := sched.Side(); got != ne {
			return fmt.Errorf("check: ne=%d %v: schedule side %d", ne, order, got)
		}
		c := sfc.Generate(sched)
		if err := ValidateCurve(c); err != nil {
			return fmt.Errorf("ne=%d %v (face): %w", ne, order, err)
		}
		cc, err := sfc.NewCubeCurve(m, sched)
		if err != nil {
			return fmt.Errorf("check: ne=%d %v: %w", ne, order, err)
		}
		if err := ValidateCubeCurve(cc, true); err != nil {
			return fmt.Errorf("ne=%d %v (cube): %w", ne, order, err)
		}
	}
	return nil
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
