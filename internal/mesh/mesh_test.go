package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadNe(t *testing.T) {
	for _, ne := range []int{0, -1, -8} {
		if _, err := New(ne); err == nil {
			t.Errorf("New(%d): want error, got nil", ne)
		}
	}
}

func TestNumElems(t *testing.T) {
	cases := []struct{ ne, want int }{
		{1, 6}, {2, 24}, {8, 384}, {9, 486}, {16, 1536}, {18, 1944}, {24, 3456},
	}
	for _, c := range cases {
		m := mustMesh(t, c.ne)
		if got := m.NumElems(); got != c.want {
			t.Errorf("Ne=%d: NumElems=%d, want %d", c.ne, got, c.want)
		}
	}
}

func TestIDElemRoundTrip(t *testing.T) {
	m := mustMesh(t, 5)
	for f := Face(0); f < NumFaces; f++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 5; i++ {
				id := m.ID(f, i, j)
				el := m.Elem(id)
				if el.Face != f || el.I != i || el.J != j {
					t.Fatalf("roundtrip (%v,%d,%d) -> %d -> %+v", f, i, j, id, el)
				}
			}
		}
	}
}

func TestIDsAreDenseAndValid(t *testing.T) {
	m := mustMesh(t, 4)
	seen := make(map[ElemID]bool)
	for f := Face(0); f < NumFaces; f++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				id := m.ID(f, i, j)
				if id < 0 || int(id) >= m.NumElems() {
					t.Fatalf("ID(%v,%d,%d)=%d out of range", f, i, j, id)
				}
				if seen[id] {
					t.Fatalf("duplicate id %d", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != m.NumElems() {
		t.Fatalf("got %d distinct ids, want %d", len(seen), m.NumElems())
	}
}

// Every element of the cubed-sphere has exactly 4 edge neighbours; interior
// and cube-edge elements have 4 corner neighbours, while the three elements
// meeting at each of the 8 cube corners have only 3.
func TestNeighborCounts(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 4, 8} {
		m := mustMesh(t, ne)
		corner7 := 0
		for e := 0; e < m.NumElems(); e++ {
			id := ElemID(e)
			en := m.EdgeNeighbors(id)
			cn := m.CornerNeighbors(id)
			if len(en) != 4 {
				t.Fatalf("ne=%d elem %d: %d edge neighbours, want 4", ne, e, len(en))
			}
			switch len(cn) {
			case 4:
			case 3:
				corner7++
			case 0:
				if ne != 1 {
					t.Fatalf("ne=%d elem %d: 0 corner neighbours", ne, e)
				}
			default:
				t.Fatalf("ne=%d elem %d: %d corner neighbours", ne, e, len(cn))
			}
		}
		if ne == 1 {
			// Each face touches all 8 cube corners' worth of... with ne=1 an
			// element shares two nodes with each of its 4 adjacent faces and
			// one node with none (opposite face shares nothing).
			continue
		}
		// Exactly 3 elements touch each of the 8 cube corners.
		if corner7 != 24 {
			t.Errorf("ne=%d: %d elements with 3 corner neighbours, want 24", ne, corner7)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 5, 8} {
		m := mustMesh(t, ne)
		contains := func(s []ElemID, x ElemID) bool {
			for _, v := range s {
				if v == x {
					return true
				}
			}
			return false
		}
		for e := 0; e < m.NumElems(); e++ {
			id := ElemID(e)
			for _, n := range m.EdgeNeighbors(id) {
				if !contains(m.EdgeNeighbors(n), id) {
					t.Fatalf("ne=%d: edge adjacency not symmetric: %d -> %d", ne, e, n)
				}
			}
			for _, n := range m.CornerNeighbors(id) {
				if !contains(m.CornerNeighbors(n), id) {
					t.Fatalf("ne=%d: corner adjacency not symmetric: %d -> %d", ne, e, n)
				}
			}
		}
	}
}

func TestNeighborsNeverSelfOrDup(t *testing.T) {
	m := mustMesh(t, 6)
	for e := 0; e < m.NumElems(); e++ {
		id := ElemID(e)
		seen := map[ElemID]bool{id: true}
		for _, n := range m.Neighbors(id) {
			if seen[n] {
				t.Fatalf("elem %d: duplicate or self neighbour %d", e, n)
			}
			seen[n] = true
		}
	}
}

// Edge and corner neighbour sets must be disjoint.
func TestEdgeCornerDisjoint(t *testing.T) {
	m := mustMesh(t, 4)
	for e := 0; e < m.NumElems(); e++ {
		id := ElemID(e)
		en := map[ElemID]bool{}
		for _, n := range m.EdgeNeighbors(id) {
			en[n] = true
		}
		for _, n := range m.CornerNeighbors(id) {
			if en[n] {
				t.Fatalf("elem %d: %d is both edge and corner neighbour", e, n)
			}
		}
	}
}

// Interior neighbours (same face, no cube edge involved) must match the
// obvious grid stencil.
func TestInteriorNeighborsMatchGridStencil(t *testing.T) {
	ne := 5
	m := mustMesh(t, ne)
	f := FacePY
	i, j := 2, 2 // interior element
	id := m.ID(f, i, j)
	wantEdge := map[ElemID]bool{
		m.ID(f, i-1, j): true, m.ID(f, i+1, j): true,
		m.ID(f, i, j-1): true, m.ID(f, i, j+1): true,
	}
	for _, n := range m.EdgeNeighbors(id) {
		if !wantEdge[n] {
			t.Errorf("unexpected edge neighbour %v", m.Elem(n))
		}
		delete(wantEdge, n)
	}
	if len(wantEdge) != 0 {
		t.Errorf("missing edge neighbours: %v", wantEdge)
	}
	wantCorner := map[ElemID]bool{
		m.ID(f, i-1, j-1): true, m.ID(f, i+1, j-1): true,
		m.ID(f, i-1, j+1): true, m.ID(f, i+1, j+1): true,
	}
	for _, n := range m.CornerNeighbors(id) {
		if !wantCorner[n] {
			t.Errorf("unexpected corner neighbour %v", m.Elem(n))
		}
		delete(wantCorner, n)
	}
	if len(wantCorner) != 0 {
		t.Errorf("missing corner neighbours: %v", wantCorner)
	}
}

// Edge neighbours must be geometrically close: the spherical distance between
// centres of edge-adjacent elements is bounded by ~3 typical element widths.
func TestEdgeNeighborsAreClose(t *testing.T) {
	ne := 8
	m := mustMesh(t, ne)
	maxAllowed := 3.0 * (math.Pi / 2) / float64(ne)
	for e := 0; e < m.NumElems(); e++ {
		id := ElemID(e)
		c := m.ElemCenter(id)
		for _, n := range m.EdgeNeighbors(id) {
			d := math.Acos(math.Max(-1, math.Min(1, c.Dot(m.ElemCenter(n)))))
			if d > maxAllowed {
				t.Fatalf("edge neighbours %d and %d are %.3f apart (max %.3f)",
					e, n, d, maxAllowed)
			}
		}
	}
}

func TestSpherePointsUnitNorm(t *testing.T) {
	for f := Face(0); f < NumFaces; f++ {
		for _, xy := range [][2]float64{{0, 0}, {1, 1}, {-1, -1}, {0.3, -0.7}} {
			p := SpherePoint(f, xy[0], xy[1])
			if math.Abs(p.Norm()-1) > 1e-12 {
				t.Errorf("SpherePoint(%v,%v,%v) norm %v", f, xy[0], xy[1], p.Norm())
			}
		}
	}
}

func TestFaceCentersAreAxes(t *testing.T) {
	want := map[Face]Vec3{
		FacePX: {1, 0, 0}, FacePY: {0, 1, 0}, FaceNX: {-1, 0, 0},
		FaceNY: {0, -1, 0}, FacePZ: {0, 0, 1}, FaceNZ: {0, 0, -1},
	}
	for f, w := range want {
		p := SpherePoint(f, 0, 0)
		if p.Sub(w).Norm() > 1e-12 {
			t.Errorf("face %v centre = %v, want %v", f, p, w)
		}
	}
}

func TestFaceFramesRightHanded(t *testing.T) {
	for f := Face(0); f < NumFaces; f++ {
		c, u, v := frameVecs(f)
		if u.Cross(v).Sub(c).Norm() > 1e-12 {
			t.Errorf("face %v frame not right-handed: u x v = %v, c = %v", f, u.Cross(v), c)
		}
	}
}

func TestAreasSumToSphere(t *testing.T) {
	for _, ne := range []int{1, 2, 4, 8} {
		m := mustMesh(t, ne)
		sum := 0.0
		minA, maxA := math.Inf(1), math.Inf(-1)
		for e := 0; e < m.NumElems(); e++ {
			a := m.ElemArea(ElemID(e))
			if a <= 0 {
				t.Fatalf("ne=%d elem %d: non-positive area %v", ne, e, a)
			}
			sum += a
			minA = math.Min(minA, a)
			maxA = math.Max(maxA, a)
		}
		if math.Abs(sum-4*math.Pi) > 1e-9 {
			t.Errorf("ne=%d: areas sum to %v, want %v", ne, sum, 4*math.Pi)
		}
		// Equiangular elements are fairly uniform: max/min area ratio < 1.8.
		if ne > 1 && maxA/minA > 1.8 {
			t.Errorf("ne=%d: area ratio %v too large for equiangular grid", ne, maxA/minA)
		}
	}
}

func TestElemCornersOutwardCCW(t *testing.T) {
	m := mustMesh(t, 4)
	for e := 0; e < m.NumElems(); e++ {
		c := m.ElemCorners(ElemID(e))
		// The normal of the corner quad should point outward (positive dot
		// with the centroid direction).
		n := c[1].Sub(c[0]).Cross(c[3].Sub(c[0]))
		centroid := c[0].Add(c[1]).Add(c[2]).Add(c[3]).Scale(0.25)
		if n.Dot(centroid) <= 0 {
			t.Fatalf("elem %d corners not CCW viewed from outside", e)
		}
	}
}

func TestLatLon(t *testing.T) {
	lat, lon := LatLon(Vec3{0, 0, 1})
	if math.Abs(lat-math.Pi/2) > 1e-12 {
		t.Errorf("north pole lat = %v", lat)
	}
	lat, lon = LatLon(Vec3{1, 0, 0})
	if lat != 0 || lon != 0 {
		t.Errorf("(1,0,0) -> lat %v lon %v", lat, lon)
	}
	lat, lon = LatLon(Vec3{0, 1, 0})
	if math.Abs(lon-math.Pi/2) > 1e-12 {
		t.Errorf("(0,1,0) lon = %v", lon)
	}
	_ = lat
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestNormalizeZeroVectorError(t *testing.T) {
	if _, err := (Vec3{}).Normalize(); err == nil {
		t.Error("Normalize(0) did not return an error")
	}
	got, err := (Vec3{X: 0, Y: 3, Z: 4}).Normalize()
	if err != nil {
		t.Fatalf("Normalize(0,3,4): %v", err)
	}
	if want := (Vec3{X: 0, Y: 0.6, Z: 0.8}); math.Abs(got.X-want.X)+math.Abs(got.Y-want.Y)+math.Abs(got.Z-want.Z) > 1e-15 {
		t.Errorf("Normalize(0,3,4) = %v, want %v", got, want)
	}
}

// Property: cross product is orthogonal to both inputs.
func TestCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		scale := (a.Norm() + 1) * (b.Norm() + 1)
		return math.Abs(c.Dot(a)) <= 1e-9*scale*scale && math.Abs(c.Dot(b)) <= 1e-9*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e3)
}

// Property: ID/Elem round-trips for random valid ids.
func TestIDRoundTripProperty(t *testing.T) {
	m := mustMesh(t, 7)
	f := func(raw uint32) bool {
		id := ElemID(int(raw) % m.NumElems())
		el := m.Elem(id)
		return m.ID(el.Face, el.I, el.J) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every pair of edge-adjacent elements shares exactly two corner
// nodes, and corner-adjacent pairs share exactly one.
func TestSharedNodeCountsProperty(t *testing.T) {
	m := mustMesh(t, 6)
	sharedNodes := func(a, b ElemID) int {
		corners := [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
		na := map[nodeKey]bool{}
		for _, c := range corners {
			na[m.PointKey(a, 1, c[0], c[1])] = true
		}
		n := 0
		for _, c := range corners {
			if na[m.PointKey(b, 1, c[0], c[1])] {
				n++
			}
		}
		return n
	}
	for e := 0; e < m.NumElems(); e++ {
		id := ElemID(e)
		for _, n := range m.EdgeNeighbors(id) {
			if got := sharedNodes(id, n); got != 2 {
				t.Fatalf("edge pair (%d,%d) shares %d nodes", id, n, got)
			}
		}
		for _, n := range m.CornerNeighbors(id) {
			if got := sharedNodes(id, n); got != 1 {
				t.Fatalf("corner pair (%d,%d) shares %d nodes", id, n, got)
			}
		}
	}
}

// TestPointKeyLattice: on the lattice of q intervals per element edge, an
// element's corners are its q = 1 keys scaled by q, edge neighbours share the
// q+1 points of their common edge and corner neighbours one point, and the
// whole cube has 6*(Ne*q)^2 + 2 distinct points (V = E - F + 2).
func TestPointKeyLattice(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 5} {
		m := mustMesh(t, ne)
		for _, q := range []int{1, 2, 3, 7} {
			keys := func(e ElemID) map[NodeKey]bool {
				s := map[NodeKey]bool{}
				for b := 0; b <= q; b++ {
					for a := 0; a <= q; a++ {
						s[m.PointKey(e, q, a, b)] = true
					}
				}
				return s
			}
			all := map[NodeKey]bool{}
			for e := ElemID(0); int(e) < m.NumElems(); e++ {
				mine := keys(e)
				for k := range mine {
					all[k] = true
				}
				for _, c := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
					k1, kq := m.PointKey(e, 1, c[0], c[1]), m.PointKey(e, q, q*c[0], q*c[1])
					if kq != (NodeKey{q * k1.X, q * k1.Y, q * k1.Z}) {
						t.Fatalf("ne=%d q=%d elem %d corner %v: key %v, want %d * %v", ne, q, e, c, kq, q, k1)
					}
				}
				shared := func(nb ElemID) (n int) {
					for k := range keys(nb) {
						if mine[k] {
							n++
						}
					}
					return n
				}
				edge, corner := m.NeighborsInto(e, nil, nil)
				for _, nb := range edge {
					if n := shared(nb); n != q+1 {
						t.Fatalf("ne=%d q=%d: edge pair (%d,%d) shares %d points, want %d", ne, q, e, nb, n, q+1)
					}
				}
				for _, nb := range corner {
					if n := shared(nb); n != 1 {
						t.Fatalf("ne=%d q=%d: corner pair (%d,%d) shares %d points, want 1", ne, q, e, nb, n)
					}
				}
			}
			if want := 6*(ne*q)*(ne*q) + 2; len(all) != want {
				t.Errorf("ne=%d q=%d: %d distinct points, want %d", ne, q, len(all), want)
			}
		}
	}
}

func TestFaceString(t *testing.T) {
	if FacePX.String() != "+X" || FaceNZ.String() != "-Z" {
		t.Error("Face.String labels wrong")
	}
	if Face(9).String() != "Face(9)" {
		t.Errorf("Face(9).String() = %q", Face(9).String())
	}
}

// mustMesh builds a cubed-sphere mesh or fails the test.
func mustMesh(tb testing.TB, ne int) *Mesh {
	tb.Helper()
	m, err := New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// nodeKey is the name the oracles in this package were written against,
// before the key type had a single exported owner.
type nodeKey = NodeKey
