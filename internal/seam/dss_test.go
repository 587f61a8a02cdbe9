package seam

import (
	"math"
	"math/rand"
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
		d, err := NewDSS(g)
		if err != nil {
			t.Fatal(err)
		}
		want := 6*(ne*n)*(ne*n) + 2
		if d.NumGlobalNodes() != want {
			t.Errorf("ne=%d n=%d: %d global nodes, want %d", ne, n, d.NumGlobalNodes(), want)
		}
	}
}

// Shared points identified topologically must coincide geometrically.
func TestDSSSharedPointsCoincide(t *testing.T) {
	g := testGrid(t, 3, 5)
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
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
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
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
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
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
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
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
	d, err := NewDSS(g)
	if err != nil {
		t.Fatal(err)
	}
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
		d, err := NewDSS(g)
		if err != nil {
			t.Fatal(err)
		}
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

func BenchmarkDSSApplyNe8Np8(b *testing.B) {
	g, err := NewGrid(8, 7, EarthRadius, EarthOmega)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDSS(g)
	if err != nil {
		b.Fatal(err)
	}
	q := g.Field()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(q)
	}
}
