package sfc

import "testing"

// xfName gives readable failure messages for the table-driven group tests.
var xfName = map[XF]string{
	Identity:      "Identity",
	Transpose:     "Transpose",
	MirrorX:       "MirrorX",
	MirrorY:       "MirrorY",
	Rotate180:     "Rotate180",
	AntiTranspose: "AntiTranspose",
	RotateCW:      "RotateCW",
	RotateCCW:     "RotateCCW",
}

// TestXFCayleyTable pins the complete multiplication table of D4 in this
// representation: row a, column b holds a.Compose(b) ("a after b"). The
// generic property tests (Compose matches function application, closure,
// associativity) confirm *some* group structure; this table freezes *which*
// group element every product is, so a silent change to the Swap/Flip
// convention cannot slip through while the properties still hold.
func TestXFCayleyTable(t *testing.T) {
	table := map[XF][8]XF{
		// Columns in AllXF order: Identity, Transpose, MirrorX, MirrorY,
		// Rotate180, AntiTranspose, RotateCW, RotateCCW.
		Identity:      {Identity, Transpose, MirrorX, MirrorY, Rotate180, AntiTranspose, RotateCW, RotateCCW},
		Transpose:     {Transpose, Identity, RotateCCW, RotateCW, AntiTranspose, Rotate180, MirrorY, MirrorX},
		MirrorX:       {MirrorX, RotateCW, Identity, Rotate180, MirrorY, RotateCCW, Transpose, AntiTranspose},
		MirrorY:       {MirrorY, RotateCCW, Rotate180, Identity, MirrorX, RotateCW, AntiTranspose, Transpose},
		Rotate180:     {Rotate180, AntiTranspose, MirrorY, MirrorX, Identity, Transpose, RotateCCW, RotateCW},
		AntiTranspose: {AntiTranspose, Rotate180, RotateCW, RotateCCW, Transpose, Identity, MirrorX, MirrorY},
		RotateCW:      {RotateCW, MirrorX, AntiTranspose, Transpose, RotateCCW, MirrorY, Rotate180, Identity},
		RotateCCW:     {RotateCCW, MirrorY, Transpose, AntiTranspose, RotateCW, MirrorX, Identity, Rotate180},
	}
	for a, row := range table {
		for j, want := range row {
			b := AllXF[j]
			if got := a.Compose(b); got != want {
				t.Errorf("%s.Compose(%s) = %s, want %s", xfName[a], xfName[b], xfName[got], xfName[want])
			}
		}
	}
	// The table itself must be a Latin square (each row and column a
	// permutation of D4) — a transcription error above would break this.
	for a, row := range table {
		seen := map[XF]bool{}
		for _, e := range row {
			if seen[e] {
				t.Errorf("row %s repeats %s", xfName[a], xfName[e])
			}
			seen[e] = true
		}
	}
}

// TestXFInverseTable pins every named inverse: the two proper rotations are
// each other's inverse, every reflection (and the half-turn and identity) is
// an involution.
func TestXFInverseTable(t *testing.T) {
	cases := []struct{ a, inv XF }{
		{Identity, Identity},
		{Transpose, Transpose},
		{MirrorX, MirrorX},
		{MirrorY, MirrorY},
		{Rotate180, Rotate180},
		{AntiTranspose, AntiTranspose},
		{RotateCW, RotateCCW},
		{RotateCCW, RotateCW},
	}
	for _, c := range cases {
		if got := c.a.Inverse(); got != c.inv {
			t.Errorf("%s.Inverse() = %s, want %s", xfName[c.a], xfName[got], xfName[c.inv])
		}
		if got := c.a.Compose(c.inv); got != Identity {
			t.Errorf("%s.Compose(%s) = %s, want Identity", xfName[c.a], xfName[c.inv], xfName[got])
		}
	}
}

// TestXFElementOrders pins the order of every element: D4 has one identity,
// five involutions (four reflections and the half-turn) and two elements of
// order four (the quarter-turns).
func TestXFElementOrders(t *testing.T) {
	wantOrder := map[XF]int{
		Identity:  1,
		Transpose: 2, MirrorX: 2, MirrorY: 2, Rotate180: 2, AntiTranspose: 2,
		RotateCW: 4, RotateCCW: 4,
	}
	for _, a := range AllXF {
		acc, order := a, 1
		for acc != Identity {
			acc = acc.Compose(a)
			order++
			if order > 8 {
				t.Fatalf("%s has order > 8", xfName[a])
			}
		}
		if order != wantOrder[a] {
			t.Errorf("%s has order %d, want %d", xfName[a], order, wantOrder[a])
		}
	}
}

// Composition must be associative over all 512 triples.
func TestXFComposeAssociative(t *testing.T) {
	for _, a := range AllXF {
		for _, b := range AllXF {
			for _, c := range AllXF {
				l := a.Compose(b).Compose(c)
				r := a.Compose(b.Compose(c))
				if l != r {
					t.Fatalf("(%s∘%s)∘%s = %s but %s∘(%s∘%s) = %s",
						xfName[a], xfName[b], xfName[c], xfName[l],
						xfName[a], xfName[b], xfName[c], xfName[r])
				}
			}
		}
	}
	// D4 is not abelian; pin one witness pair so a degenerate implementation
	// that collapses to a commutative subgroup cannot pass.
	if MirrorX.Compose(Transpose) != RotateCW || Transpose.Compose(MirrorX) != RotateCCW {
		t.Error("MirrorX/Transpose products lost their non-commutativity")
	}
}

// TestXFEntryExitImages pins where each transform sends the canonical motif
// endpoints — entry (0,0) and exit (P-1,0) on the bottom edge (s = 4 here).
// These images are exactly the paper's major/joiner-vector data: the cube
// constructor orients faces by matching them across seams, so the table
// documents which corner pairs each orientation offers.
func TestXFEntryExitImages(t *testing.T) {
	const s = 4
	cases := []struct {
		xf          XF
		entry, exit Point
	}{
		{Identity, Point{0, 0}, Point{3, 0}},
		{Transpose, Point{0, 0}, Point{0, 3}},
		{MirrorX, Point{3, 0}, Point{0, 0}},
		{MirrorY, Point{0, 3}, Point{3, 3}},
		{Rotate180, Point{3, 3}, Point{0, 3}},
		{AntiTranspose, Point{3, 3}, Point{3, 0}},
		{RotateCW, Point{3, 0}, Point{3, 3}},
		{RotateCCW, Point{0, 3}, Point{0, 0}},
	}
	for _, c := range cases {
		if got := c.xf.Apply(Point{0, 0}, s); got != c.entry {
			t.Errorf("%s entry image = %v, want %v", xfName[c.xf], got, c.entry)
		}
		if got := c.xf.Apply(Point{s - 1, 0}, s); got != c.exit {
			t.Errorf("%s exit image = %v, want %v", xfName[c.xf], got, c.exit)
		}
		// Every orientation keeps the endpoints on one domain edge — the
		// shared-edge property that lets Hilbert and Peano levels nest.
		sameEdge := c.entry.X == c.exit.X && (c.entry.X == 0 || c.entry.X == s-1) ||
			c.entry.Y == c.exit.Y && (c.entry.Y == 0 || c.entry.Y == s-1)
		if !sameEdge {
			t.Errorf("%s maps the entry/exit pair off a single edge: %v, %v", xfName[c.xf], c.entry, c.exit)
		}
	}
}
