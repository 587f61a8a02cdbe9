package partition

import (
	"fmt"
	"slices"
	"strings"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
)

// Stats collects the partition quality metrics the paper reports in Table 2.
type Stats struct {
	NParts int

	// Nelemd is the number of vertices (spectral elements) per part.
	Nelemd []int
	// LBNelemd is the computational load balance, equation (1) applied to
	// the load of each part: PartWeights under an explicit weight vector,
	// otherwise the graph's vertex weights (element counts when it has
	// none).
	LBNelemd float64

	// PartWeights is the total element weight per part under the explicit
	// weight vector passed to ComputeStatsWeighted or StatsOver; nil when
	// the stats were computed without one (ComputeStats).
	PartWeights []int64
	// LBWeighted equals LBNelemd: the one load balance of the partition,
	// kept under this name for the weighted reports.
	LBWeighted float64

	// Spcv is the single-processor communication volume per part: the
	// weighted volume of cut edges incident to the part (what each
	// processor must exchange every time-step).
	Spcv []int64
	// LBSpcv is the communication load balance, equation (1) applied to
	// Spcv.
	LBSpcv float64

	// EdgeCut is the weighted edgecut: the total weight of graph edges
	// that straddle parts.
	EdgeCut int64
	// EdgeCutUnweighted is the plain number of straddling edges.
	EdgeCutUnweighted int64

	// TotalCommVolume is the METIS-style total communication volume:
	// sum over vertices of vsize(v) times the number of distinct remote
	// parts adjacent to v.
	TotalCommVolume int64
	// CutVertices is the paper's simplified definition: the number of
	// vertices with at least one cut edge.
	CutVertices int64

	// MaxNelemd and MinNelemd are the extreme per-part vertex counts.
	MaxNelemd, MinNelemd int

	// DisconnectedParts is the number of parts whose vertices do not form
	// a single connected sub-graph. Disconnected parts pay communication
	// for internal coherence; SFC partitions are connected by construction
	// (contiguous curve segments of a continuous curve), while K-way
	// refinement can fragment parts.
	DisconnectedParts int
	// MaxComponents is the largest number of connected components in any
	// single part.
	MaxComponents int
	// EmptyParts is the number of parts that received no vertices at all —
	// a degenerate K-way output (an idle processor) that neither
	// DisconnectedParts nor MaxComponents flags, since an empty part has
	// zero components.
	EmptyParts int
}

// ComputeStats evaluates all quality metrics of partition p on graph g.
func ComputeStats(g *graph.Graph, p *Partition) (Stats, error) {
	return ComputeStatsWeighted(g, p, nil)
}

// ComputeStatsWeighted is StatsOver over a CSR graph, read as one row span:
// g's vertex sizes scale the communication volume and its vertex weights are
// the load when weights is nil. It serves graphs a caller built (AMR
// forests, ProblemFrom); a mesh's own graph is measured over its view.
func ComputeStatsWeighted(g *graph.Graph, p *Partition, weights []int64) (Stats, error) {
	return measure(g.NumVertices(), g.VertexWeights(), p, weights, func(s sweep, assign []int32, comps []int) sweep {
		s.assign, s.parent, s.vsize = assign, make([]int32, len(assign)), g.VertexSizes()
		for v := range s.parent {
			s.parent[v] = int32(v)
		}
		xadj, adj, wts := g.CSR()
		s.rows(0, len(assign), xadj, adj, wts)
		for v, r := range s.parent {
			if int(r) == v {
				comps[assign[v]]++
			}
		}
		return s
	})
}

// StatsOver evaluates all quality metrics of partition p over the mesh view
// mv. weights, when non-nil, is an explicit element weight vector (indexed
// like the vertices) and the one load vector read: PartWeights receives the
// total weight per part, and LBNelemd and LBWeighted the equation-(1)
// balance over it; without it the load is the element counts.
// Negative weights fail with *WeightError and an all-zero vector with
// *ZeroTotalWeightError, checked in the same pass that sums PartWeights —
// the validation the weighted curve split applies, so a partition and its
// stats can never disagree about weight legality.
//
// The sweep runs a face at a time through a copy of the face's parts padded
// by a one-element halo (see sweep.faces), so every element, seam or not, is
// read off the view's Stencil and no row is ever resolved; the row body
// (sweep.rows) is the CSR sweep's.
//
// Edge accounting: the row body visits every directed adjacency entry, so
// each undirected cut edge {u, v} is seen exactly twice (once from u, once
// from v); halving EdgeCut/EdgeCutUnweighted afterwards yields the
// undirected totals, while Spcv deliberately keeps the per-direction count —
// a cut edge contributes its weight to the communication volume of both
// endpoints' parts. This accounting is cross-checked edge-for-edge against
// an independent single-pass (u < v) recomputation by
// internal/check (Audit in every published experiment cell, CrossCheckStats
// in the fuzz and mutation suites).
func StatsOver(mv *graph.MeshView, p *Partition, weights []int64) (Stats, error) {
	return measure(mv.NumVertices(), nil, p, weights, func(s sweep, assign []int32, comps []int) sweep {
		s.faces(mv, assign, comps)
		return s
	})
}

// measure is the body of both entry points: the load prelude over n
// vertices (vw, when non-nil, the vertex weights read without weights), the
// sweep, which counts each part's components into comps, and the totals.
// The sweep goes to run and back by value, so it stays on the stack.
func measure(n int, vw []int32, p *Partition, weights []int64, run func(s sweep, assign []int32, comps []int) sweep) (Stats, error) {
	nparts, assign := p.NumParts(), p.Assignment()
	if len(assign) != n {
		return Stats{}, fmt.Errorf("partition: %d vertices but graph has %d", len(assign), n)
	}
	st := Stats{NParts: nparts, Nelemd: make([]int, nparts)}
	var load []int64 // nil: the element counts
	if weights != nil {
		if len(weights) != n {
			return Stats{}, fmt.Errorf("partition: %d weights for %d vertices", len(weights), n)
		}
		st.PartWeights = make([]int64, nparts)
		var total int64
		for v, w := range weights {
			if w < 0 {
				return Stats{}, &WeightError{Index: v, Weight: w}
			}
			st.PartWeights[assign[v]] += w
			total += w
		}
		if total == 0 && n > 0 {
			return Stats{}, &ZeroTotalWeightError{N: n}
		}
		load = st.PartWeights
	} else if vw != nil {
		load = make([]int64, nparts)
		for v, q := range assign {
			load[q] += int64(vw[v])
		}
	}

	comps := st.Nelemd // the components of every part, until the counts go in
	s := run(sweep{stamp: make([]int32, nparts), spcv: make([]int64, nparts)}, assign, comps)
	st.Spcv, st.EdgeCut, st.EdgeCutUnweighted, st.CutVertices, st.TotalCommVolume = s.spcv, s.cutWeight/2, s.cutEdges/2, s.cutRows, s.tcv
	st.LBSpcv = LoadBalance(st.Spcv)

	// Empty parts have zero components and are counted separately —
	// MaxComponents starts at 1, so a part that received no vertices would
	// otherwise be invisible in the report.
	st.MaxComponents = 1
	for _, c := range comps {
		if c == 0 {
			st.EmptyParts++
		}
		if c > 1 {
			st.DisconnectedParts++
		}
		st.MaxComponents = max(st.MaxComponents, c)
	}

	clear(st.Nelemd)
	for _, q := range assign {
		st.Nelemd[q]++
	}
	st.MaxNelemd, st.MinNelemd = slices.Max(st.Nelemd), slices.Min(st.Nelemd)
	if load == nil {
		st.LBNelemd = LoadBalance(st.Nelemd)
	} else {
		st.LBNelemd = LoadBalance(load)
	}
	st.LBWeighted = st.LBNelemd
	return st, nil
}

// sweep is the statistics' one pass over the rows: cut accounting per vertex, and
// a union-find over same-part edges (each undirected edge once, from its
// higher end). assign and parent are K long over a CSR graph, one padded
// face's over a mesh view; stamp[q] is tag0 + 1 + the last vertex that
// counted q among its remote parts.
type sweep struct {
	assign, stamp, parent, vsize      []int32
	tag0                              int32
	spcv                              []int64
	cutWeight, cutEdges, cutRows, tcv int64 // cut edges counted once per direction
}

// faces runs the sweep a face at a time over a (Ne+2)² pad: the face's parts
// inside, the parts across its four seams (mesh.SeamStrip) in the halo, and
// at the cube corners, where only three faces meet, the face's own corner
// part, which no count sees. It counts components into comps: one that stays
// inside a face when the face is done, one that reaches the face's ring as
// it takes a ring slot (4·Ne a face), less one per union of slots across the
// twelve cube edges. Nothing K long is allocated.
func (s *sweep) faces(mv *graph.MeshView, assign []int32, comps []int) {
	m, offs, wts := mv.Stencil()
	ne, w := m.Ne(), m.Ne()+2
	n2, nr := ne*ne, 4*ne
	slab := make([]int32, 2*w*w+mesh.NumFaces*nr) // one allocation, cut in three
	pad, parent, ring := slab[:w*w:w*w], slab[w*w:2*w*w:2*w*w], slab[2*w*w:]
	s.assign, s.parent = pad, parent
	for f := range mesh.NumFaces {
		for j := range ne {
			copy(pad[(j+1)*w+1:], assign[f*n2+j*ne:f*n2+(j+1)*ne])
		}
		for side, h := range [4][2]int{{w, w}, {w + ne + 1, w}, {1, 1}, {(ne+1)*w + 1, 1}} { // position 0, stride
			first, step := m.SeamStrip(mesh.Face(f), side)
			for p := range ne {
				pad[h[0]+p*h[1]] = assign[int(first)+p*step]
			}
		}
		pad[0], pad[w-1], pad[(w-1)*w], pad[w*w-1] = pad[w+1], pad[2*w-2], pad[(w-2)*w+1], pad[(w-1)*w-2]
		for x := range parent {
			parent[x] = int32(x)
		}
		s.tag0 = int32(f * w * w)
		for j := 1; j <= ne; j++ {
			s.rows(j*w+1, j*w+ne+1, nil, offs, wts)
		}
		// Every ring element's root first; then each root takes the slot of
		// its first ring element as ^slot, which no cell index equals.
		r := ring[f*nr : (f+1)*nr]
		for pass := range 2 {
			for j := range ne {
				step := ne - 1 // the ring's columns 0 and ne-1, or all in rows 0 and ne-1
				if j == 0 || j == ne-1 {
					step = 1
				}
				for i := 0; i < ne; i += step {
					if k := slot(ne, i, j); pass == 0 {
						r[k] = find(parent, int32((j+1)*w+i+1))
					} else {
						if root := r[k]; parent[root] >= 0 {
							parent[root] = ^int32(f*nr + k)
							comps[pad[root]]++
						}
						r[k] = ^parent[r[k]]
					}
				}
			}
		}
		for j := 1; j <= ne; j++ {
			for x := j*w + 1; x <= j*w+ne; x++ {
				if parent[x] == int32(x) {
					comps[pad[x]]++
				}
			}
		}
	}
	// Each cube edge once, from its lower face: the element at position p
	// on the side meets the elements across at p, and with corners p±1.
	reach := len(offs) / 8
	for f := range mesh.NumFaces {
		for side := range 4 {
			first, step := m.SeamStrip(mesh.Face(f), side)
			if g := int(first) / n2; g > f {
				for p := range ne {
					i, j := p, (side%2)*(ne-1)
					if side < 2 {
						i, j = j, p
					}
					for q := max(p-reach, 0); q <= min(p+reach, ne-1); q++ {
						b := int(first) + q*step
						if a := f*n2 + j*ne + i; assign[a] == assign[b] {
							ra, rb := find(ring, ring[f*nr+slot(ne, i, j)]), find(ring, ring[g*nr+slot(ne, b%n2%ne, b%n2/ne)])
							if ra != rb {
								ring[rb] = ra
								comps[assign[a]]--
							}
						}
					}
				}
			}
		}
	}
}

// slot numbers the ring of an ne×ne face in 4·ne slots: rows 0 and ne-1 by
// i, then columns 0 and ne-1 by j.
func slot(ne, i, j int) int {
	if j == 0 || j == ne-1 {
		return min(j, 1)*ne + i
	}
	return (2+min(i, 1))*ne + j
}

// rows is the row body: it accounts rows [lo, hi), row v being adj[ptr[v-lo]:
// ptr[v-lo+1]] with wts parallel or, when ptr is nil (a stencil span), v+adj[k]
// with weight wts[k]. Both ascend, so the unions come in the same order.
func (s *sweep) rows(lo, hi int, ptr, adj, wts []int32) {
	assign, stamp, parent, vsize, spcv, tag0 := s.assign, s.stamp, s.parent, s.vsize, s.spcv, s.tag0
	row, wrow, base, start := adj, wts, int32(0), int32(0)
	if ptr != nil {
		start, ptr = ptr[0], ptr[1:]
	}
	for v := lo; v < hi; v++ {
		if ptr == nil {
			base = int32(v)
		} else {
			end := ptr[v-lo]
			row, wrow, start = adj[start:end], wts[start:end], end
		}
		pv, tag := assign[v], tag0+int32(v)+1
		wrow = wrow[:len(row)] // one length: wrow[i] needs no bounds check
		var cutW, cutN, remote int64
		for i, o := range row {
			u := base + o
			if pu := assign[u]; pu != pv {
				cutW += int64(wrow[i])
				cutN++
				if stamp[pu] != tag {
					stamp[pu] = tag
					remote++
				}
			} else if int(u) < v && parent[u] != parent[v] {
				if ru, rv := find(parent, u), find(parent, int32(v)); ru != rv {
					parent[rv] = ru
				}
			}
		}
		if cutN == 0 {
			continue
		}
		spcv[pv] += cutW
		s.cutWeight += cutW
		s.cutEdges += cutN
		s.cutRows++
		if vsize != nil {
			remote *= int64(vsize[v])
		}
		s.tcv += remote
	}
}

// find returns the root of x's union-find tree, halving the path as it goes.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// String renders the Table-2 style summary of the statistics, including the
// count of empty (degenerate) parts so idle processors are visible.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "parts=%d nelemd=[%d..%d] LB(nelemd)=%.4f LB(spcv)=%.4f edgecut=%d tcv=%d empty=%d",
		s.NParts, s.MinNelemd, s.MaxNelemd, s.LBNelemd, s.LBSpcv, s.EdgeCut, s.TotalCommVolume, s.EmptyParts)
	return b.String()
}
