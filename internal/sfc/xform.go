// Package sfc implements the space-filling curves of Dennis (IPPS 2003,
// section 3): the Hilbert curve for P = 2^n domains, the meandering Peano
// (m-Peano) curve for P = 3^m domains, and the nested Hilbert-Peano curve for
// P = 2^n * 3^m domains, plus the construction of a single continuous curve
// over all six faces of the cubed-sphere (Figure 6).
//
// The implementation follows the paper's major/joiner-vector formulation in a
// transform-algebra form: every recursion level applies a "motif" (the level-1
// curve shape) whose sub-domains each carry a dihedral-group transform -- the
// paper's major and joiner vectors are exactly the images of the canonical
// curve's entry edge and exit direction under that transform. Both the Hilbert
// and m-Peano motifs enter their domain at the bottom-left corner and exit at
// the bottom-right corner, i.e. the curve traverses the domain along a single
// major axis; as the paper observes, this shared property is what permits the
// two refinement types to nest freely level by level.
package sfc

// Point is a cell coordinate in a P x P grid, 0 <= X,Y < P.
type Point struct{ X, Y int }

// XF is an element of the dihedral group D4 acting on an s x s grid of cells:
// first the coordinates are optionally swapped (reflection across the main
// diagonal), then optionally flipped in X and/or Y. All eight symmetries of
// the square are representable.
type XF struct{ Swap, FlipX, FlipY bool }

// The eight elements of D4 in this representation.
var (
	Identity      = XF{}
	Transpose     = XF{Swap: true}
	MirrorX       = XF{FlipX: true}
	MirrorY       = XF{FlipY: true}
	Rotate180     = XF{FlipX: true, FlipY: true}
	AntiTranspose = XF{Swap: true, FlipX: true, FlipY: true}
	RotateCW      = XF{Swap: true, FlipX: true} // (x,y) -> (s-1-y, x)
	RotateCCW     = XF{Swap: true, FlipY: true} // (x,y) -> (y, s-1-x)
)

// AllXF lists every element of D4; useful for searches over orientations.
var AllXF = [8]XF{
	Identity, Transpose, MirrorX, MirrorY,
	Rotate180, AntiTranspose, RotateCW, RotateCCW,
}

// Apply maps cell p of an s x s grid to its image under t.
func (t XF) Apply(p Point, s int) Point {
	if t.Swap {
		p.X, p.Y = p.Y, p.X
	}
	if t.FlipX {
		p.X = s - 1 - p.X
	}
	if t.FlipY {
		p.Y = s - 1 - p.Y
	}
	return p
}

// Compose returns the transform "t after u": Compose(t,u).Apply(p) ==
// t.Apply(u.Apply(p)). An XF is a swap followed by flips, so u's flips pass
// through t's swap (exchanging axes if t swaps) and then everything XORs.
func (t XF) Compose(u XF) XF {
	if t.Swap {
		u.FlipX, u.FlipY = u.FlipY, u.FlipX
	}
	return XF{Swap: t.Swap != u.Swap, FlipX: t.FlipX != u.FlipX, FlipY: t.FlipY != u.FlipY}
}

// Inverse returns the transform u with Compose(t, u) == Identity: undoing
// the flips before the swap is the same as exchanging them after it.
func (t XF) Inverse() XF {
	if t.Swap {
		t.FlipX, t.FlipY = t.FlipY, t.FlipX
	}
	return t
}

// index numbers the eight transforms 0..7, for tables keyed by orientation.
func (t XF) index() int {
	i := 0
	if t.Swap {
		i = 4
	}
	if t.FlipX {
		i |= 2
	}
	if t.FlipY {
		i |= 1
	}
	return i
}
