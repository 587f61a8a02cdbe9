package sfc

// Baseline orderings used to quantify what the Hilbert/Peano construction
// actually buys. Neither is part of the paper's algorithm; they are the
// standard comparison points in the SFC-partitioning literature (e.g.
// Pilkington & Baden 1994, which the paper builds on):
//
//   - Serpentine (boustrophedon): continuous like a space-filling curve but
//     with no hierarchical locality -- segments become long thin strips.
//   - Morton (Z-order): hierarchical locality like Hilbert but
//     discontinuous -- segments can be split across Z-jumps.

// GenerateSerpentine builds the column-major boustrophedon ordering of a
// p x p grid: up the first column, down the second, and so on. It is
// continuous for every p >= 1 and enters at (0, 0).
func GenerateSerpentine(p int) *Curve {
	c := &Curve{p: p, order: make([]Point, 0, p*p)}
	c.flat = func(x, y int) int {
		if x%2 == 1 {
			y = p - 1 - y
		}
		return x*p + y
	}
	for x := 0; x < p; x++ {
		if x%2 == 0 {
			for y := 0; y < p; y++ {
				c.order = append(c.order, Point{x, y})
			}
		} else {
			for y := p - 1; y >= 0; y-- {
				c.order = append(c.order, Point{x, y})
			}
		}
	}
	return c
}

// GenerateMorton builds the Morton (Z-order) ordering of a 2^n x 2^n grid:
// the rank of cell (x, y) interleaves the bits of x and y. Morton order has
// hierarchical block locality but is not continuous: consecutive ranks can
// be far apart, which is exactly the deficiency the Hilbert curve repairs.
func GenerateMorton(levels int) *Curve {
	p := 1 << levels
	c := &Curve{p: p, order: make([]Point, p*p)}
	c.flat = func(x, y int) int { return interleaveBits(x, y, levels) }
	for y := 0; y < p; y++ {
		for x := 0; x < p; x++ {
			c.order[c.flat(x, y)] = Point{x, y}
		}
	}
	return c
}

// interleaveBits computes the Morton code of (x, y) with the given number
// of bit levels: bit i of x lands at position 2i, bit i of y at 2i+1.
func interleaveBits(x, y, levels int) int {
	r := 0
	for i := 0; i < levels; i++ {
		r |= ((x >> i) & 1) << (2 * i)
		r |= ((y >> i) & 1) << (2*i + 1)
	}
	return r
}
