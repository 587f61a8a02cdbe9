package seam

import (
	"fmt"

	"sfccube/internal/mesh"
)

// DSS performs direct stiffness summation: the global assembly that imposes
// C0 continuity along element boundaries. GLL points shared between elements
// (whole edges for boundary neighbours, single points for corner neighbours)
// are identified topologically through the mesh's exact corner-node keys, so
// assembly works across cube edges and at cube corners without any geometric
// tolerance.
//
// Applying the DSS replaces every shared point's value with the
// mass-weighted average of the values all touching elements hold for it --
// the standard spectral element projection onto the continuous basis.
type DSS struct {
	g *Grid

	// nodeOf maps (elem*npts + idx) to a global node id.
	nodeOf []int32
	// numNodes is the number of distinct global GLL nodes (the size of the
	// assembled continuous basis). Per-rank byte accounting is a property
	// of a partition, not of the assembly topology, so it lives in Runner.
	numNodes int

	// Exchange plan: the global nodes touched by more than one element, in
	// CSR form, so the apply paths do a pure gather/scatter with no per-point
	// div/mod. Shared node s has members pts[ptr[s]:ptr[s+1]]; pts entries
	// are flat element-major offsets (elem*npts + idx) that index field slabs
	// directly, ascending within a node.
	ptr  []int32
	pts  []int32
	mass []float64 // quadrature mass per member, aligned with pts
	den  []float64 // per node: sum of member masses, accumulated in member order
	rden []float64 // per node: 1/den, used by the vector apply path to
	// replace three divisions per node with one precomputed reciprocal. The
	// scalar path keeps the exact division num/den: when every member holds
	// the same value the division returns it exactly, which is what makes
	// Apply preserve integrals of already-continuous fields to roundoff
	// (TestDSSPreservesContinuousFields); the extra rounding of num*(1/den)
	// loses that.
	vgeo []vecGeom // per member: metric + basis for the vector projection
}

// vecGeom caches the geometric factors the covariant-vector DSS needs at one
// member point, gathered once at plan build time.
type vecGeom struct {
	gi11, gi12, gi22 float64
	ea, eb           mesh.Vec3
}

// NewDSS builds the assembly structure for grid g.
func NewDSS(g *Grid) (*DSS, error) {
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
	// order of mesh.CornerNodes) to the GLL point at that corner.
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
		cn := m.CornerNodes(id)
		edgeNbrs, cornerNbrs := m.NeighborsInto(id, edgeBuf[:0], cornerBuf[:0])
		for _, nb := range edgeNbrs {
			if nb <= id {
				continue // each pair once
			}
			cnb := m.CornerNodes(nb)
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
			cnb := m.CornerNodes(nb)
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

// NumGlobalNodes returns the number of distinct global GLL points.
func (d *DSS) NumGlobalNodes() int { return d.numNodes }

// Validate checks the assembly structure, so fuzzers and the oracle subsystem
// (package check) can verify any DSS instance. The exchange plan is checked
// against nodeOf, the map it was derived from, never against itself:
//
//   - nodeOf maps every element point to a global node in [0, numNodes) and
//     every global node has at least one member;
//   - the number of distinct global nodes matches the Euler-characteristic
//     count for a conforming cubed-sphere GLL grid, 6*(Ne*N)^2 + 2;
//   - ptr is a monotone row pointer over pts, and mass, vgeo, den and rden
//     have one entry per member respectively per node;
//   - the plan lists exactly the global nodes of multiplicity >= 2, each
//     once with all of its points: members are in range, no point appears
//     twice, a plan node's members share one global node and number its
//     multiplicity;
//   - every member mass is positive and equals Grid.Mass at that point,
//     every den is the sum of its members' masses and every rden is 1/den.
func (d *DSS) Validate() error {
	g := d.g
	total := g.NumElems() * g.PointsPerElem()
	if len(d.nodeOf) != total {
		return fmt.Errorf("seam: nodeOf covers %d points, want %d", len(d.nodeOf), total)
	}
	mult := make([]int32, d.numNodes)
	for i, gid := range d.nodeOf {
		if gid < 0 || int(gid) >= d.numNodes {
			return fmt.Errorf("seam: point %d has global node %d, want [0,%d)", i, gid, d.numNodes)
		}
		mult[gid]++
	}
	wantShared := 0
	for gid, c := range mult {
		if c == 0 {
			return fmt.Errorf("seam: global node %d has no members", gid)
		}
		if c >= 2 {
			wantShared++
		}
	}
	n := g.Np - 1
	if want := 6*(g.M.Ne()*n)*(g.M.Ne()*n) + 2; d.numNodes != want {
		return fmt.Errorf("seam: %d global nodes, want 6*(Ne*N)^2+2 = %d", d.numNodes, want)
	}
	ns := d.NumSharedNodes()
	if ns != wantShared {
		return fmt.Errorf("seam: %d shared nodes, want %d (multiplicity >= 2)", ns, wantShared)
	}
	if len(d.ptr) != ns+1 || d.ptr[0] != 0 || int(d.ptr[ns]) != len(d.pts) ||
		len(d.mass) != len(d.pts) || len(d.vgeo) != len(d.pts) || len(d.rden) != ns {
		return fmt.Errorf("seam: plan arrays disagree: %d nodes, ptr %d, pts %d, mass %d, vgeo %d, rden %d",
			ns, len(d.ptr), len(d.pts), len(d.mass), len(d.vgeo), len(d.rden))
	}
	seen := make([]bool, total)
	for s := 0; s < ns; s++ {
		lo, hi := d.ptr[s], d.ptr[s+1]
		if lo < 0 || hi < lo+2 || int(hi) > len(d.pts) {
			return fmt.Errorf("seam: plan node %d spans [%d,%d), want >= 2 members inside [0,%d]", s, lo, hi, len(d.pts))
		}
		gid := int32(-1)
		var den float64
		for m := lo; m < hi; m++ {
			p := d.pts[m]
			if p < 0 || int(p) >= total {
				return fmt.Errorf("seam: plan node %d member %d out of range", s, p)
			}
			if seen[p] {
				return fmt.Errorf("seam: point %d appears in more than one plan node", p)
			}
			seen[p] = true
			if m == lo {
				gid = d.nodeOf[p]
			} else if d.nodeOf[p] != gid {
				return fmt.Errorf("seam: plan node %d mixes global nodes %d and %d", s, gid, d.nodeOf[p])
			}
			if d.mass[m] <= 0 || d.mass[m] != g.Mass[p] {
				return fmt.Errorf("seam: plan node %d member %d mass %g, want Grid.Mass %g > 0", s, m-lo, d.mass[m], g.Mass[p])
			}
			den += d.mass[m]
		}
		if mult[gid] != hi-lo {
			return fmt.Errorf("seam: plan node %d lists %d members but global node %d has %d", s, hi-lo, gid, mult[gid])
		}
		if d.den[s] != den {
			return fmt.Errorf("seam: plan node %d den %g, want member sum %g", s, d.den[s], den)
		}
		if d.rden[s] != 1/den {
			return fmt.Errorf("seam: plan node %d rden %g, want 1/den %g", s, d.rden[s], 1/den)
		}
	}
	return nil
}

// NumSharedNodes returns the number of global points touched by more than
// one element.
func (d *DSS) NumSharedNodes() int { return len(d.den) }

// GlobalNode returns the global node id of point idx of element e.
func (d *DSS) GlobalNode(e, idx int) int32 {
	return d.nodeOf[e*d.g.PointsPerElem()+idx]
}

// Apply projects field q onto the continuous basis: every shared point is
// replaced by the mass-weighted average of the element-local values — gather
// the member values through the exchange plan, average with the precomputed
// weight sum, scatter back.
func (d *DSS) Apply(q []float64) {
	for s := range d.den {
		d.applyNodeFlat(q, int32(s))
	}
}

// applyNodeFlat assembles one shared node of the plan on slab q.
func (d *DSS) applyNodeFlat(q []float64, s int32) {
	lo, hi := d.ptr[s], d.ptr[s+1]
	var num float64
	for m := lo; m < hi; m++ {
		num += d.mass[m] * q[d.pts[m]]
	}
	avg := num / d.den[s]
	for m := lo; m < hi; m++ {
		q[d.pts[m]] = avg
	}
}

// ApplyVector projects a covariant vector field (v1, v2) onto the continuous
// basis. Unlike scalars, covariant components cannot be averaged directly at
// points shared between cube faces: the coordinate bases of the two faces
// differ there, so the same physical vector has different components on each
// side. The projection therefore reconstructs the physical 3-D vector
// V = u^1 Ea + u^2 Eb at every member point, mass-averages the 3-D vectors,
// and projects the average back onto each element's own basis -- the
// component-rotation treatment SEAM applies at cube edges. Within a face the
// bases agree and this reduces to the scalar average. The per-member metric
// and basis vectors come from the plan's vgeo cache.
func (d *DSS) ApplyVector(v1, v2 []float64) {
	for s := range d.den {
		d.applyVectorNodeFlat(v1, v2, int32(s))
	}
}

// applyVectorNodeFlat assembles one shared node of the covariant-vector
// projection on slabs (v1, v2).
func (d *DSS) applyVectorNodeFlat(v1, v2 []float64, s int32) {
	lo, hi := d.ptr[s], d.ptr[s+1]
	var sx, sy, sz float64
	for m := lo; m < hi; m++ {
		p := d.pts[m]
		vg := &d.vgeo[m]
		u1 := vg.gi11*v1[p] + vg.gi12*v2[p]
		u2 := vg.gi12*v1[p] + vg.gi22*v2[p]
		w := d.mass[m]
		sx += w * (u1*vg.ea.X + u2*vg.eb.X)
		sy += w * (u1*vg.ea.Y + u2*vg.eb.Y)
		sz += w * (u1*vg.ea.Z + u2*vg.eb.Z)
	}
	rd := d.rden[s]
	sx, sy, sz = sx*rd, sy*rd, sz*rd
	for m := lo; m < hi; m++ {
		p := d.pts[m]
		vg := &d.vgeo[m]
		v1[p] = sx*vg.ea.X + sy*vg.ea.Y + sz*vg.ea.Z
		v2[p] = sx*vg.eb.X + sy*vg.eb.Y + sz*vg.eb.Z
	}
}

// MaxDiscontinuity returns the largest absolute difference between the
// element-local values meeting at any shared point: a continuity diagnostic
// that is zero (to roundoff) after Apply.
func (d *DSS) MaxDiscontinuity(q []float64) float64 {
	var worst float64
	for s := range d.den {
		lo, hi := +1e308, -1e308
		for _, p := range d.pts[d.ptr[s]:d.ptr[s+1]] {
			v := q[p]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > worst {
			worst = hi - lo
		}
	}
	return worst
}
