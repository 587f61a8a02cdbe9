// Package seam implements the substrate the paper partitions: a spectral
// element shallow-water dynamical core on the cubed sphere in the style of
// SEAM (Taylor, Tribbia & Iskandarani, J. Comput. Phys. 130, 1997 -- the
// reference the paper cites for the model). Model fields are approximated by
// high-order polynomials on Gauss-Lobatto-Legendre (GLL) grids inside each
// quadrilateral element, with C0 continuity imposed along element boundaries
// by direct stiffness summation (DSS). The communication pattern of the
// parallel model -- exchanges between elements that share a boundary or a
// corner point -- is exactly the adjacency the partitioning graph encodes.
//
// The package also meters floating-point work per element and communication
// bytes per exchanged boundary, which calibrate the machine performance model
// (package machine) used to regenerate the paper's speedup and Gflops
// figures.
package seam

import (
	"fmt"
	"math"
)

// GLL holds the one-dimensional Gauss-Lobatto-Legendre quadrature rule and
// spectral differentiation matrix for polynomial degree N on [-1, 1].
type GLL struct {
	N      int       // polynomial degree; Np = N+1 points
	Points []float64 // nodes in ascending order, Points[0] = -1, Points[N] = 1
	Wts    []float64 // quadrature weights
	D      []float64 // differentiation matrix, row-major Np x Np: (Du)_i = sum_j D[i*Np+j] u_j
	Dt     []float64 // transpose of D, row-major Np x Np: Dt[j*Np+i] = D[i*Np+j]
}

// NewGLL constructs the GLL rule of degree n >= 1.
func NewGLL(n int) (*GLL, error) {
	if n < 1 {
		return nil, fmt.Errorf("seam: GLL degree must be >= 1, got %d", n)
	}
	np := n + 1
	g := &GLL{
		N:      n,
		Points: make([]float64, np),
		Wts:    make([]float64, np),
		D:      make([]float64, np*np),
		Dt:     make([]float64, np*np),
	}
	g.computeNodes()
	g.computeWeights()
	g.computeD()
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			g.Dt[j*np+i] = g.D[i*np+j]
		}
	}
	return g, nil
}

// Np returns the number of points, N+1.
func (g *GLL) Np() int { return g.N + 1 }

// legendreAndDeriv evaluates the Legendre polynomial P_n and its derivative
// at x by the standard three-term recurrence.
func legendreAndDeriv(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	pm, p := 1.0, x
	for k := 2; k <= n; k++ {
		pm, p = p, ((2*float64(k)-1)*x*p-(float64(k)-1)*pm)/float64(k)
	}
	// P'_n(x) = n (x P_n - P_{n-1}) / (x^2 - 1), valid for |x| < 1.
	if x == 1 || x == -1 {
		dp = math.Pow(x, float64(n-1)) * float64(n) * float64(n+1) / 2
		return p, dp
	}
	dp = float64(n) * (x*p - pm) / (x*x - 1)
	return p, dp
}

// computeNodes finds the GLL nodes: the endpoints plus the roots of P'_N,
// by Newton iteration from Chebyshev-Gauss-Lobatto initial guesses.
func (g *GLL) computeNodes() {
	n := g.N
	np := n + 1
	g.Points[0], g.Points[n] = -1, 1
	for i := 1; i < n; i++ {
		// Initial guess: Chebyshev-Lobatto node.
		x := -math.Cos(math.Pi * float64(i) / float64(n))
		for it := 0; it < 100; it++ {
			// Newton on q(x) = P'_N(x): need q and q'. Use the Legendre
			// ODE: (1-x^2) P''_N = 2x P'_N - N(N+1) P_N, so
			// q' = P''_N = (2x P'_N - N(N+1) P_N) / (1 - x^2).
			p, dp := legendreAndDeriv(n, x)
			d2p := (2*x*dp - float64(n)*float64(n+1)*p) / (1 - x*x)
			dx := dp / d2p
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		g.Points[i] = x
	}
	_ = np
}

// computeWeights sets the GLL quadrature weights
// w_i = 2 / (N (N+1) P_N(x_i)^2).
func (g *GLL) computeWeights() {
	n := g.N
	for i, x := range g.Points {
		p, _ := legendreAndDeriv(n, x)
		g.Wts[i] = 2 / (float64(n) * float64(n+1) * p * p)
	}
}

// computeD fills the spectral differentiation matrix for the Lagrange basis
// on the GLL nodes:
//
//	D_ij = P_N(x_i) / (P_N(x_j) (x_i - x_j))    for i != j
//	D_00 = -N(N+1)/4,  D_NN = +N(N+1)/4,  D_ii = 0 otherwise.
func (g *GLL) computeD() {
	n := g.N
	np := n + 1
	pn := make([]float64, np)
	for i, x := range g.Points {
		pn[i], _ = legendreAndDeriv(n, x)
	}
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			switch {
			case i == j && i == 0:
				g.D[i*np+j] = -float64(n) * float64(n+1) / 4
			case i == j && i == n:
				g.D[i*np+j] = float64(n) * float64(n+1) / 4
			case i == j:
				g.D[i*np+j] = 0
			default:
				g.D[i*np+j] = pn[i] / (pn[j] * (g.Points[i] - g.Points[j]))
			}
		}
	}
}
