package seam

import (
	"math"
	"testing"
)

func TestNewGLLRejectsBadDegree(t *testing.T) {
	if _, err := NewGLL(0); err == nil {
		t.Error("degree 0 accepted")
	}
	if _, err := NewGLL(-3); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestGLLKnownNodes(t *testing.T) {
	// Degree 1: {-1, 1}, weights {1, 1}.
	g := mustGLL(t, 1)
	if g.Points[0] != -1 || g.Points[1] != 1 {
		t.Errorf("degree 1 nodes: %v", g.Points)
	}
	if math.Abs(g.Wts[0]-1) > 1e-14 || math.Abs(g.Wts[1]-1) > 1e-14 {
		t.Errorf("degree 1 weights: %v", g.Wts)
	}
	// Degree 2: {-1, 0, 1}, weights {1/3, 4/3, 1/3}.
	g = mustGLL(t, 2)
	if math.Abs(g.Points[1]) > 1e-14 {
		t.Errorf("degree 2 middle node: %v", g.Points[1])
	}
	want := []float64{1.0 / 3, 4.0 / 3, 1.0 / 3}
	for i := range want {
		if math.Abs(g.Wts[i]-want[i]) > 1e-14 {
			t.Errorf("degree 2 weight %d = %v, want %v", i, g.Wts[i], want[i])
		}
	}
	// Degree 3: interior nodes at +-1/sqrt(5), weights {1/6, 5/6, 5/6, 1/6}.
	g = mustGLL(t, 3)
	if math.Abs(g.Points[1]+1/math.Sqrt(5)) > 1e-13 {
		t.Errorf("degree 3 node: %v", g.Points[1])
	}
	if math.Abs(g.Wts[0]-1.0/6) > 1e-13 || math.Abs(g.Wts[1]-5.0/6) > 1e-13 {
		t.Errorf("degree 3 weights: %v", g.Wts)
	}
}

func TestGLLNodesSortedSymmetric(t *testing.T) {
	for n := 1; n <= 16; n++ {
		g := mustGLL(t, n)
		if g.Np() != n+1 {
			t.Fatalf("Np = %d", g.Np())
		}
		for i := 1; i <= n; i++ {
			if g.Points[i] <= g.Points[i-1] {
				t.Fatalf("degree %d nodes not increasing: %v", n, g.Points)
			}
		}
		for i := 0; i <= n; i++ {
			if math.Abs(g.Points[i]+g.Points[n-i]) > 1e-13 {
				t.Errorf("degree %d nodes not symmetric at %d", n, i)
			}
			if math.Abs(g.Wts[i]-g.Wts[n-i]) > 1e-13 {
				t.Errorf("degree %d weights not symmetric at %d", n, i)
			}
		}
	}
}

// GLL quadrature with N+1 points is exact for polynomials of degree 2N-1.
func TestGLLQuadratureExactness(t *testing.T) {
	for n := 2; n <= 12; n++ {
		g := mustGLL(t, n)
		for deg := 0; deg <= 2*n-1; deg++ {
			u := make([]float64, g.Np())
			for i, x := range g.Points {
				u[i] = math.Pow(x, float64(deg))
			}
			got := 0.0
			for i, w := range g.Wts {
				got += w * u[i]
			}
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-11 {
				t.Errorf("degree %d rule, x^%d: got %v want %v", n, deg, got, want)
			}
		}
	}
}

// Weights must sum to the measure of [-1, 1].
func TestGLLWeightsSum(t *testing.T) {
	for n := 1; n <= 16; n++ {
		g := mustGLL(t, n)
		sum := 0.0
		for _, w := range g.Wts {
			if w <= 0 {
				t.Fatalf("degree %d: non-positive weight %v", n, w)
			}
			sum += w
		}
		if math.Abs(sum-2) > 1e-12 {
			t.Errorf("degree %d: weights sum to %v", n, sum)
		}
	}
}

// The differentiation matrix is exact for polynomials of degree <= N.
func TestGLLDerivativeExactness(t *testing.T) {
	for n := 1; n <= 12; n++ {
		g := mustGLL(t, n)
		np := g.Np()
		u := make([]float64, np)
		du := make([]float64, np)
		for deg := 0; deg <= n; deg++ {
			for i, x := range g.Points {
				u[i] = math.Pow(x, float64(deg))
			}
			for i := range du {
				du[i] = 0
				for j, uj := range u {
					du[i] += g.D[i*np+j] * uj
				}
			}
			for i, x := range g.Points {
				want := 0.0
				if deg > 0 {
					want = float64(deg) * math.Pow(x, float64(deg-1))
				}
				if math.Abs(du[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Errorf("degree %d rule, d/dx x^%d at node %d: got %v want %v",
						n, deg, i, du[i], want)
				}
			}
		}
	}
}

// Rows of D sum to zero (derivative of a constant is zero).
func TestGLLDRowSums(t *testing.T) {
	g := mustGLL(t, 8)
	np := g.Np()
	for i := 0; i < np; i++ {
		var s float64
		for j := 0; j < np; j++ {
			s += g.D[i*np+j]
		}
		if math.Abs(s) > 1e-11 {
			t.Errorf("row %d of D sums to %v", i, s)
		}
	}
}

// Summation-by-parts: W*D + D^T*W = B where B = diag(-1, 0, ..., 0, 1).
func TestGLLSummationByParts(t *testing.T) {
	g := mustGLL(t, 7)
	np := g.Np()
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			s := g.Wts[i]*g.D[i*np+j] + g.Wts[j]*g.D[j*np+i]
			want := 0.0
			if i == j && i == 0 {
				want = -1
			}
			if i == j && i == np-1 {
				want = 1
			}
			if math.Abs(s-want) > 1e-11 {
				t.Errorf("SBP violated at (%d,%d): %v want %v", i, j, s, want)
			}
		}
	}
}

func TestLegendreEndpointDerivative(t *testing.T) {
	for n := 1; n <= 10; n++ {
		_, dp := legendreAndDeriv(n, 1)
		want := float64(n) * float64(n+1) / 2
		if math.Abs(dp-want) > 1e-12*want {
			t.Errorf("P'_%d(1) = %v, want %v", n, dp, want)
		}
	}
}

// mustGLL builds a GLL rule or fails the test.
func mustGLL(tb testing.TB, n int) *GLL {
	tb.Helper()
	g, err := NewGLL(n)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
