package seam

import (
	"fmt"

	"sfccube/internal/mesh"
)

// DSS performs direct stiffness summation: the global assembly that imposes
// C0 continuity along element boundaries. GLL points shared between elements
// (whole edges for boundary neighbours, single points for corner neighbours)
// are identified by their exact integer lattice keys (mesh.PointKey), so
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

// NewDSS builds the assembly structure for grid g. A GLL point inside an
// element is a node of its own; a point on an element's boundary is named by
// its mesh.PointKey on the lattice of Np-1 intervals per element edge, so
// every element touching it -- along an edge, at a corner, across a cube
// edge -- finds the same node. Nodes are numbered in order of their first
// point, and the exchange plan lists the shared ones in that order, each
// with its members ascending.
func NewDSS(g *Grid) *DSS {
	k, np := g.NumElems(), g.Np
	npts := np * np
	d := &DSS{g: g, nodeOf: make([]int32, k*npts)}
	ids := make(map[mesh.NodeKey]int32, k*(2*np-3)+2) // one entry per boundary node
	next := int32(0)
	for e := 0; e < k; e++ {
		for b := 0; b < np; b++ {
			for a := 0; a < np; a++ {
				id := next
				if a == 0 || a == np-1 || b == 0 || b == np-1 {
					key := g.M.PointKey(mesh.ElemID(e), np-1, a, b)
					if old, ok := ids[key]; ok {
						id = old
					} else {
						ids[key] = id
					}
				}
				if id == next {
					next++
				}
				d.nodeOf[e*npts+b*np+a] = id
			}
		}
	}
	d.numNodes = int(next)

	// Counting pass: count members per node, turn the counts of shared nodes
	// into plan offsets (-1 marks a node of one member), then scatter every
	// point to its slot in ascending point order.
	slot := make([]int32, d.numNodes)
	for _, n := range d.nodeOf {
		slot[n]++
	}
	nShared, nMembers := 0, 0
	for _, c := range slot {
		if c >= 2 {
			nShared++
			nMembers += int(c)
		}
	}
	d.ptr = make([]int32, 1, nShared+1)
	for n, c := range slot {
		if c < 2 {
			slot[n] = -1
			continue
		}
		slot[n] = d.ptr[len(d.ptr)-1]
		d.ptr = append(d.ptr, slot[n]+c)
	}
	d.pts = make([]int32, nMembers)
	d.mass = make([]float64, nMembers)
	d.vgeo = make([]vecGeom, nMembers)
	for p, n := range d.nodeOf {
		m := slot[n]
		if m < 0 {
			continue
		}
		slot[n]++
		d.pts[m], d.mass[m] = int32(p), g.Mass[p]
		d.vgeo[m] = vecGeom{gi11: g.GI11[p], gi12: g.GI12[p], gi22: g.GI22[p], ea: g.Ea[p], eb: g.Eb[p]}
	}
	d.den = make([]float64, nShared)
	d.rden = make([]float64, nShared)
	for s := range d.den {
		for _, w := range d.mass[d.ptr[s]:d.ptr[s+1]] {
			d.den[s] += w
		}
		d.rden[s] = 1 / d.den[s]
	}
	return d
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
