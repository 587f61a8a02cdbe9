package sfc

// Kind selects the refinement type applied at one recursion level.
type Kind int

const (
	// Hilbert refines a domain into 2x2 sub-domains (paper section 3,
	// Figures 2 and 3).
	Hilbert Kind = iota
	// Peano refines a domain into 3x3 sub-domains using the meandering
	// Peano curve (paper Figure 4).
	Peano
)

func (k Kind) String() string {
	switch k {
	case Hilbert:
		return "Hilbert"
	case Peano:
		return "Peano"
	}
	return "Kind(?)"
}

// Base returns the refinement factor of k: the motif subdivides each domain
// edge into Base equal parts.
func (k Kind) Base() int {
	if k == Peano {
		return 3
	}
	return 2
}

// motifCell is one sub-domain of a level-1 curve: its cell coordinate within
// the parent (canonical orientation) and the transform applied to the child
// curve inside it. In the paper's terminology the transform encodes the
// sub-domain's major and joiner vectors (Figure 2, panel b; Figure 4,
// panel b).
type motifCell struct {
	cell  Point
	child XF
}

// Both motifs obey the same contract: in canonical orientation the curve
// enters the parent domain at the bottom-left cell's entry corner (0,0) and
// exits at the bottom-right cell's exit corner (b-1, 0), travelling net along
// the +X major axis. Every child transform is chosen so that the exit point
// of sub-domain k is grid-adjacent to the entry point of sub-domain k+1; this
// is verified exhaustively by the tests (TestMotifContinuity).

// hilbertMotif is the canonical U-shaped level-1 Hilbert curve:
// (0,0) -> (0,1) -> (1,1) -> (1,0).
var hilbertMotif = []motifCell{
	{Point{0, 0}, Transpose},
	{Point{0, 1}, Identity},
	{Point{1, 1}, Identity},
	{Point{1, 0}, AntiTranspose},
}

// peanoMotif is the canonical level-1 meandering Peano curve:
// (0,0) -> (0,1) -> (0,2) -> (1,2) -> (2,2) -> (2,1) -> (1,1) -> (1,0) -> (2,0).
// Like the Hilbert motif it enters at the bottom-left and exits at the
// bottom-right corner, which is what allows Hilbert and m-Peano levels to be
// nested into the combined Hilbert-Peano curve (paper section 3).
var peanoMotif = []motifCell{
	{Point{0, 0}, Transpose},
	{Point{0, 1}, Transpose},
	{Point{0, 2}, Identity},
	{Point{1, 2}, Identity},
	{Point{2, 2}, Identity},
	{Point{2, 1}, Rotate180},
	{Point{1, 1}, AntiTranspose},
	{Point{1, 0}, AntiTranspose},
	{Point{2, 0}, Identity},
}

// motifOf returns the motif cells for refinement kind k.
func motifOf(k Kind) []motifCell {
	if k == Peano {
		return peanoMotif
	}
	return hilbertMotif
}

// oriented is a motif as seen from a parent domain with accumulated
// orientation t: the i-th sub-domain visited is cell[i] of the parent's
// Base x Base grid and carries orientation child[i] = t.Compose(motif child);
// digit inverts cell (digit[y*Base+x] = i). The recursion that writes a
// curve reads cell and child, the descent that inverts it reads digit and
// child, so each checks the other.
type oriented struct {
	cell  []Point
	child []XF
	digit []int
}

// orientedMotifs[k][t.index()] is the motif of kind k under orientation t.
var orientedMotifs = orientMotifs()

func orientMotifs() (tab [2][8]oriented) {
	for _, k := range []Kind{Hilbert, Peano} {
		b := k.Base()
		for _, t := range AllXF {
			o := &tab[k][t.index()]
			o.digit = make([]int, b*b)
			for i, mc := range motifOf(k) {
				c := t.Apply(mc.cell, b)
				o.cell = append(o.cell, c)
				o.child = append(o.child, t.Compose(mc.child))
				o.digit[c.Y*b+c.X] = i
			}
		}
	}
	return tab
}
