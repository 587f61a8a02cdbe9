package seam

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sfccube/internal/mesh"
)

func TestDSSNodeCount(t *testing.T) {
	// On a conforming cubed-sphere GLL grid the number of distinct global
	// points is 6*(ne*n)^2 + 2 (the Euler characteristic of the sphere:
	// V = E - F + 2 with F = 6*(ne*n)^2 quad faces of the fine point grid).
	for _, cfg := range [][2]int{{1, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 7}} {
		ne, n := cfg[0], cfg[1]
		g := testGrid(t, ne, n)
		d := NewDSS(g)
		want := 6*(ne*n)*(ne*n) + 2
		if d.NumGlobalNodes() != want {
			t.Errorf("ne=%d n=%d: %d global nodes, want %d", ne, n, d.NumGlobalNodes(), want)
		}
	}
}

// Shared points identified topologically must coincide geometrically.
func TestDSSSharedPointsCoincide(t *testing.T) {
	g := testGrid(t, 3, 5)
	d := NewDSS(g)
	for s := 0; s < d.NumSharedNodes(); s++ {
		members := d.pts[d.ptr[s]:d.ptr[s+1]]
		p0 := g.Pos[members[0]]
		for _, p := range members[1:] {
			q := g.Pos[p]
			if p0.Sub(q).Norm() > 1e-6 { // metres, on a 6.4e6 m sphere
				t.Fatalf("shared points %v and %v are %.3e m apart", p0, q, p0.Sub(q).Norm())
			}
		}
	}
}

// A smooth global function sampled per element is already continuous, so
// Apply must not change it (beyond roundoff).
func TestDSSPreservesContinuousFields(t *testing.T) {
	g := testGrid(t, 2, 6)
	d := NewDSS(g)
	q := g.Field()
	f := func(p mesh.Vec3) float64 {
		x, y, z := p.X/g.Radius, p.Y/g.Radius, p.Z/g.Radius
		return math.Sin(3*x) + math.Cos(2*y)*z
	}
	for i, p := range g.Pos {
		q[i] = f(p)
	}
	if disc := d.MaxDiscontinuity(q); disc > 1e-8 {
		t.Fatalf("continuous field has discontinuity %v before Apply", disc)
	}
	before := g.Integrate(q)
	d.Apply(q)
	if disc := d.MaxDiscontinuity(q); disc > 1e-12 {
		t.Errorf("discontinuity %v after Apply", disc)
	}
	after := g.Integrate(q)
	if math.Abs(after-before) > 1e-9*math.Abs(before) {
		t.Errorf("Apply changed the integral: %v -> %v", before, after)
	}
}

// Apply must make any field continuous and be idempotent.
func TestDSSApplyIdempotent(t *testing.T) {
	g := testGrid(t, 2, 4)
	d := NewDSS(g)
	q := g.Field()
	// Deterministic pseudo-random discontinuous field.
	s := uint64(12345)
	for i := range q {
		s = s*6364136223846793005 + 1442695040888963407
		q[i] = float64(s>>33) / float64(1<<31)
	}
	d.Apply(q)
	if disc := d.MaxDiscontinuity(q); disc > 1e-12 {
		t.Fatalf("field not continuous after Apply: %v", disc)
	}
	snapshot := append([]float64(nil), q...)
	d.Apply(q)
	for i := range q {
		if math.Abs(q[i]-snapshot[i]) > 1e-13*(1+math.Abs(snapshot[i])) {
			t.Fatalf("Apply not idempotent at point %d: %v vs %v", i, q[i], snapshot[i])
		}
	}
}

// Every interior point belongs to one element; every edge point to 2; corner
// points to 4 except at the 8 cube corners where 3 elements meet.
func TestDSSMultiplicity(t *testing.T) {
	g := testGrid(t, 2, 3)
	d := NewDSS(g)
	npts := g.PointsPerElem()
	counts := make(map[int32]int)
	for e := 0; e < g.NumElems(); e++ {
		for i := 0; i < npts; i++ {
			counts[d.GlobalNode(e, i)]++
		}
	}
	hist := map[int]int{}
	for _, c := range counts {
		hist[c]++
	}
	if hist[3] != 8 {
		t.Errorf("%d nodes of multiplicity 3, want 8 (cube corners)", hist[3])
	}
	for c := range hist {
		if c != 1 && c != 2 && c != 3 && c != 4 {
			t.Errorf("unexpected multiplicity %d", c)
		}
	}
	if d.NumSharedNodes() != hist[2]+hist[3]+hist[4] {
		t.Errorf("shared node count mismatch")
	}
}

// naiveGroups lists, per global node, the flat ids of the element points
// mapped to it, straight from DSS.GlobalNode — the reference the exchange
// plan is compared against.
func naiveGroups(g *Grid, d *DSS) [][]int {
	npts := g.PointsPerElem()
	groups := make([][]int, d.NumGlobalNodes())
	for e := 0; e < g.NumElems(); e++ {
		for idx := 0; idx < npts; idx++ {
			gid := d.GlobalNode(e, idx)
			groups[gid] = append(groups[gid], e*npts+idx)
		}
	}
	return groups
}

// The exchange plan must produce, bit for bit, what a naive assembler gets by
// grouping points on DSS.GlobalNode and mass-averaging with Grid.Mass — for
// the scalar projection and, using the same 1/den product, for the
// covariant-vector one.
func TestDSSPlanMatchesNaiveAssembly(t *testing.T) {
	g := testGrid(t, 2, 4)
	d := NewDSS(g)
	rng := rand.New(rand.NewSource(11))
	random := func() []float64 {
		q := g.Field()
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		return q
	}
	q, v1, v2 := random(), random(), random()
	wantQ := append([]float64(nil), q...)
	want1 := append([]float64(nil), v1...)
	want2 := append([]float64(nil), v2...)
	for _, pts := range naiveGroups(g, d) {
		if len(pts) < 2 {
			continue
		}
		var num, den, sx, sy, sz float64
		for _, p := range pts {
			m := g.Mass[p]
			num += m * q[p]
			den += m
			u1 := g.GI11[p]*v1[p] + g.GI12[p]*v2[p]
			u2 := g.GI12[p]*v1[p] + g.GI22[p]*v2[p]
			sx += m * (u1*g.Ea[p].X + u2*g.Eb[p].X)
			sy += m * (u1*g.Ea[p].Y + u2*g.Eb[p].Y)
			sz += m * (u1*g.Ea[p].Z + u2*g.Eb[p].Z)
		}
		rd := 1 / den
		sx, sy, sz = sx*rd, sy*rd, sz*rd
		for _, p := range pts {
			wantQ[p] = num / den
			want1[p] = sx*g.Ea[p].X + sy*g.Ea[p].Y + sz*g.Ea[p].Z
			want2[p] = sx*g.Eb[p].X + sy*g.Eb[p].Y + sz*g.Eb[p].Z
		}
	}
	d.Apply(q)
	d.ApplyVector(v1, v2)
	for i := range q {
		if q[i] != wantQ[i] {
			t.Fatalf("scalar DSS differs from naive assembly at point %d: %v vs %v", i, q[i], wantQ[i])
		}
		if v1[i] != want1[i] || v2[i] != want2[i] {
			t.Fatalf("vector DSS differs from naive assembly at point %d", i)
		}
	}
}

// Validate must report a corrupted plan as an error, whichever field is
// corrupted, and must not panic while doing so.
func TestDSSValidateCatchesCorruption(t *testing.T) {
	g := testGrid(t, 2, 3)
	fresh := func() *DSS {
		d := NewDSS(g)
		return d
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	total := int32(g.NumElems() * g.PointsPerElem())
	cases := map[string]func(d *DSS){
		"first member out of range": func(d *DSS) { d.pts[0] = total },
		"first member negative":     func(d *DSS) { d.pts[0] = -1 },
		"member repeated across two plan nodes": func(d *DSS) {
			d.pts[d.ptr[1]] = d.pts[0]
		},
		"member moved to another global node": func(d *DSS) {
			// Swap the last members of plan nodes 0 and 1: every point still
			// appears once, but both nodes now mix two global nodes.
			a, b := d.ptr[1]-1, d.ptr[2]-1
			d.pts[a], d.pts[b] = d.pts[b], d.pts[a]
		},
		"non-positive mass": func(d *DSS) { d.mass[1] = 0 },
		"wrong den":         func(d *DSS) { d.den[0] *= 2 },
		"wrong rden":        func(d *DSS) { d.rden[0] *= 2 },
		"truncated ptr":     func(d *DSS) { d.ptr = d.ptr[:len(d.ptr)-1] },
		"empty ptr":         func(d *DSS) { d.ptr = nil },
		"truncated den":     func(d *DSS) { d.den = d.den[:len(d.den)-1] },
		"point remapped in nodeOf": func(d *DSS) {
			d.nodeOf[d.pts[0]] = d.nodeOf[d.pts[d.ptr[1]]]
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			d := fresh()
			corrupt(d)
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Validate panicked: %v", v)
				}
			}()
			if err := d.Validate(); err == nil {
				t.Error("corrupted plan accepted")
			}
		})
	}
}

// newDSSUnionFind is the DSS constructor NewDSS replaced, kept verbatim as
// the reference it is held to: it finds the shared points by a second route,
// walking the mesh adjacency (NeighborsInto, across the cube's gluing table)
// and unifying the GLL points of every edge- and corner-neighbour pair
// matched by their corner keys.
func newDSSUnionFind(g *Grid) (*DSS, error) {
	k := g.NumElems()
	np := g.Np
	npts := np * np
	total := k * npts

	// Union-find over all element points.
	parent := make([]int32, total)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	pt := func(e int, a, b int) int32 { return int32(e*npts + b*np + a) }

	// cornerIdx maps a local corner number (0=BL, 1=BR, 2=TR, 3=TL; the
	// order of cornerKeys) to the GLL point at that corner.
	cornerIdx := func(e int, c int) int32 {
		switch c {
		case 0:
			return pt(e, 0, 0)
		case 1:
			return pt(e, np-1, 0)
		case 2:
			return pt(e, np-1, np-1)
		default:
			return pt(e, 0, np-1)
		}
	}
	// edgePoints returns the np GLL point ids along the local edge from
	// corner c0 to corner c1 (consecutive corners in CCW order, either
	// direction), in that direction.
	edgePoints := func(e, c0, c1 int) ([]int32, error) {
		out := make([]int32, np)
		fill := func(f func(t int) int32) {
			for t := 0; t < np; t++ {
				out[t] = f(t)
			}
		}
		switch {
		case c0 == 0 && c1 == 1: // bottom, left to right
			fill(func(t int) int32 { return pt(e, t, 0) })
		case c0 == 1 && c1 == 0:
			fill(func(t int) int32 { return pt(e, np-1-t, 0) })
		case c0 == 1 && c1 == 2: // right, bottom to top
			fill(func(t int) int32 { return pt(e, np-1, t) })
		case c0 == 2 && c1 == 1:
			fill(func(t int) int32 { return pt(e, np-1, np-1-t) })
		case c0 == 2 && c1 == 3: // top, right to left
			fill(func(t int) int32 { return pt(e, np-1-t, np-1) })
		case c0 == 3 && c1 == 2:
			fill(func(t int) int32 { return pt(e, t, np-1) })
		case c0 == 3 && c1 == 0: // left, top to bottom
			fill(func(t int) int32 { return pt(e, 0, np-1-t) })
		case c0 == 0 && c1 == 3:
			fill(func(t int) int32 { return pt(e, 0, t) })
		default:
			return nil, fmt.Errorf("seam: corners %d,%d are not an element edge", c0, c1)
		}
		return out, nil
	}

	// For each edge-adjacent pair, unify the GLL points of the shared edge
	// in matching order; for each corner-adjacent pair, unify the shared
	// corner point.
	m := g.M
	var edgeBuf, cornerBuf [4]mesh.ElemID // reused: the mesh resolves rows per call
	for e := 0; e < k; e++ {
		id := mesh.ElemID(e)
		cn := cornerKeys(m, id)
		edgeNbrs, cornerNbrs := m.NeighborsInto(id, edgeBuf[:0], cornerBuf[:0])
		for _, nb := range edgeNbrs {
			if nb <= id {
				continue // each pair once
			}
			cnb := cornerKeys(m, nb)
			// Shared corner nodes.
			var mineC, theirsC []int
			for i, a := range cn {
				for j, b := range cnb {
					if a == b {
						mineC = append(mineC, i)
						theirsC = append(theirsC, j)
					}
				}
			}
			if len(mineC) != 2 {
				return nil, fmt.Errorf("seam: edge neighbours %d,%d share %d corners", id, nb, len(mineC))
			}
			myEdge, err := edgePoints(e, mineC[0], mineC[1])
			if err != nil {
				return nil, err
			}
			theirEdge, err := edgePoints(int(nb), theirsC[0], theirsC[1])
			if err != nil {
				return nil, err
			}
			for t := 0; t < np; t++ {
				union(myEdge[t], theirEdge[t])
			}
		}
		for _, nb := range cornerNbrs {
			if nb <= id {
				continue
			}
			cnb := cornerKeys(m, nb)
			for i, a := range cn {
				for j, b := range cnb {
					if a == b {
						union(cornerIdx(e, i), cornerIdx(int(nb), j))
					}
				}
			}
		}
	}

	// Number the roots densely, then append every global node with two or
	// more members to the exchange plan.
	d := &DSS{g: g, nodeOf: make([]int32, total)}
	rootID := make(map[int32]int32, total)
	for i := int32(0); i < int32(total); i++ {
		r := find(i)
		gid, ok := rootID[r]
		if !ok {
			gid = int32(len(rootID))
			rootID[r] = gid
		}
		d.nodeOf[i] = gid
	}
	d.numNodes = len(rootID)
	members := make([][]int32, d.numNodes)
	for i := int32(0); i < int32(total); i++ {
		gid := d.nodeOf[i]
		members[gid] = append(members[gid], i)
	}
	nShared, nMembers := 0, 0
	for _, pts := range members {
		if len(pts) >= 2 {
			nShared++
			nMembers += len(pts)
		}
	}
	d.ptr = make([]int32, 1, nShared+1)
	d.pts = make([]int32, 0, nMembers)
	d.mass = make([]float64, 0, nMembers)
	d.vgeo = make([]vecGeom, 0, nMembers)
	d.den = make([]float64, 0, nShared)
	d.rden = make([]float64, 0, nShared)
	for _, pts := range members {
		if len(pts) < 2 {
			continue
		}
		var den float64
		for _, p := range pts {
			d.pts = append(d.pts, p)
			d.mass = append(d.mass, g.Mass[p])
			den += g.Mass[p]
			d.vgeo = append(d.vgeo, vecGeom{
				gi11: g.GI11[p], gi12: g.GI12[p], gi22: g.GI22[p],
				ea: g.Ea[p], eb: g.Eb[p],
			})
		}
		d.ptr = append(d.ptr, int32(len(d.pts)))
		d.den = append(d.den, den)
		d.rden = append(d.rden, 1/den)
	}
	return d, nil
}

// cornerKeys returns the keys of element e's corner nodes in counter-clockwise
// order: bottom-left, bottom-right, top-right, top-left.
func cornerKeys(m *mesh.Mesh, e mesh.ElemID) [4]mesh.NodeKey {
	return [4]mesh.NodeKey{m.PointKey(e, 1, 0, 0), m.PointKey(e, 1, 1, 0), m.PointKey(e, 1, 1, 1), m.PointKey(e, 1, 0, 1)}
}

// TestDSSMatchesUnionFind holds NewDSS, which numbers shared points by their
// lattice keys, to the union-find over the mesh adjacency it replaced: the
// whole structure -- node numbering, exchange plan, masses, denominators and
// vector geometry -- must be deeply equal on every grid up to Ne = 12 and
// degree 7.
func TestDSSMatchesUnionFind(t *testing.T) {
	for ne := 1; ne <= 12; ne++ {
		for deg := 1; deg <= 7; deg++ {
			g := testGrid(t, ne, deg)
			want, err := newDSSUnionFind(g)
			if err != nil {
				t.Fatalf("ne=%d deg=%d: reference: %v", ne, deg, err)
			}
			if got := NewDSS(g); !reflect.DeepEqual(got, want) {
				t.Errorf("ne=%d deg=%d: NewDSS differs from the union-find reference", ne, deg)
			}
		}
	}
}

// BenchmarkNewDSS times the plan build at degree 7, the BENCH_seam.json
// configuration (Ne = 8) and twice its resolution.
func BenchmarkNewDSS(b *testing.B) {
	for _, ne := range []int{8, 16} {
		g := testGrid(b, ne, 7)
		b.Run(fmt.Sprintf("Ne%d", ne), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dssSink = NewDSS(g)
			}
		})
	}
}

// dssSink keeps BenchmarkNewDSS's result live.
var dssSink *DSS

func BenchmarkDSSApplyNe8Np8(b *testing.B) {
	g, err := NewGrid(8, 7, EarthRadius, EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	d := NewDSS(g)
	q := g.Field()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(q)
	}
}
