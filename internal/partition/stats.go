package partition

import (
	"fmt"
	"strings"

	"sfccube/internal/graph"
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

// Adjacency is what the statistics read of a dual graph: the vertex count,
// the weight vectors, and the rows a block at a time. Rows returns rows
// [lo, hi): row v is adj[ptr[v-lo]:ptr[v-lo+1]], ascending, with wts
// parallel. *graph.Graph ignores the buffers and aliases its CSR storage;
// *graph.MeshView fills them (from length 0) from the mesh, so a cubed-sphere
// partition can be measured without the graph ever being built. What Rows
// returns is read-only and valid until the next call with the same buffers.
// A nil VertexWeights or VertexSizes means every vertex has weight or size 1.
type Adjacency interface {
	NumVertices() int
	Rows(lo, hi int, ptrBuf, adjBuf, wtBuf []int32) (ptr, adj, wts []int32)
	VertexWeights() []int32
	VertexSizes() []int32
}

// statsBlock is how many rows StatsOver reads per Rows call: CSR rows, and
// the face-boundary ring of a mesh view, whose buffers (8 neighbours a row)
// are sized to the ring's longest run of rows or this, whichever is smaller.
const statsBlock = 128

// ComputeStats evaluates all quality metrics of partition p on graph g.
func ComputeStats(g *graph.Graph, p *Partition) (Stats, error) { return StatsOver(g, p, nil) }

// ComputeStatsWeighted is ComputeStats under an explicit element weight
// vector; see StatsOver.
func ComputeStatsWeighted(g *graph.Graph, p *Partition, weights []int64) (Stats, error) {
	return StatsOver(g, p, weights)
}

// StatsOver evaluates all quality metrics of partition p over the adjacency
// a. weights, when non-nil, is an explicit element weight vector (indexed
// like the vertices) and the one load vector read: PartWeights receives the
// total weight per part, and LBNelemd and LBWeighted the equation-(1)
// balance over it; a's vertex weights are read only when weights is nil.
// Negative weights fail with *WeightError and an all-zero vector with
// *ZeroTotalWeightError, checked in the same pass that sums PartWeights —
// the validation the weighted curve split applies, so a partition and its
// stats can never disagree about weight legality.
//
// Over a *graph.MeshView a face-interior row is read off the view's Stencil
// (its neighbours' parts are loads from assignment rows j-1, j, j+1); only
// the O(Ne) face-boundary ring, and every row of any other adjacency, goes
// through Rows. Both feed one row body (sweep.rows) in ascending order.
//
// Edge accounting: the row body visits every directed adjacency entry, so
// each undirected cut edge {u, v} is seen exactly twice (once from u, once
// from v); halving EdgeCut/EdgeCutUnweighted afterwards yields the
// undirected totals, while Spcv deliberately keeps the per-direction count —
// a cut edge contributes its weight to the communication volume of both
// endpoints' parts. This accounting is cross-checked edge-for-edge against
// an independent single-pass (u < v) recomputation by
// internal/check.CrossCheckStats, which the differential, fuzz and mutation
// suites run over every method, mesh and part count they touch; the audit
// found the totals in exact agreement (no discrepancy to correct).
func StatsOver(a Adjacency, p *Partition, weights []int64) (Stats, error) {
	n, nparts, assign := a.NumVertices(), p.NumParts(), p.Assignment()
	if len(assign) != n {
		return Stats{}, fmt.Errorf("partition: %d vertices but graph has %d", len(assign), n)
	}
	st := Stats{NParts: nparts}
	st.Nelemd = p.Counts()
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
		st.LBNelemd = LoadBalance(st.PartWeights)
	} else if vw := a.VertexWeights(); vw != nil {
		wc := make([]int64, nparts)
		for v, q := range assign {
			wc[q] += int64(vw[v])
		}
		st.LBNelemd = LoadBalance(wc)
	} else {
		st.LBNelemd = LoadBalance(st.Nelemd)
	}
	st.LBWeighted = st.LBNelemd

	s := sweep{assign: assign, stamp: make([]int32, nparts), parent: make([]int32, n), vsize: a.VertexSizes(), spcv: make([]int64, nparts)}
	for v := range s.parent {
		s.parent[v] = int32(v)
	}
	// Mesh row j in [1, ne-2] of a face: ring element, ne-2 stencil rows, ring element.
	lo := 0
	if mv, ok := a.(*graph.MeshView); ok {
		ne, offs, wts := mv.Stencil()
		b := min(statsBlock, n) // below Ne = 3 every row is on the ring
		if ne >= 3 {
			b = min(b, 2*ne+2) // the longest run of ring rows: across a face seam
		}
		s.ptrBuf, s.adjBuf, s.wtBuf = make([]int32, 0, b+1), make([]int32, 0, 8*b), make([]int32, 0, 8*b)
		for r := 0; r < n; r += ne {
			if j := r / ne % ne; j > 0 && j < ne-1 {
				s.read(a, lo, r+1)
				s.rows(r+1, r+ne-1, nil, offs, wts)
				lo = r + ne - 1
			}
		}
	}
	s.read(a, lo, n)
	st.Spcv, st.EdgeCut, st.EdgeCutUnweighted, st.CutVertices, st.TotalCommVolume = s.spcv, s.cutWeight/2, s.cutEdges/2, s.cutRows, s.tcv
	st.LBSpcv = LoadBalance(st.Spcv)

	st.MaxNelemd, st.MinNelemd = st.Nelemd[0], st.Nelemd[0]
	for _, c := range st.Nelemd {
		if c > st.MaxNelemd {
			st.MaxNelemd = c
		}
		if c < st.MinNelemd {
			st.MinNelemd = c
		}
	}

	// Connected components per part, counted in the stamp array. Empty parts
	// have zero components and are counted separately — MaxComponents starts
	// at 1, so a part that received no vertices would otherwise be invisible
	// in the report.
	clear(s.stamp)
	for v, r := range s.parent {
		if int(r) == v {
			s.stamp[assign[v]]++
		}
	}
	st.MaxComponents = 1
	for _, c := range s.stamp {
		if c == 0 {
			st.EmptyParts++
		}
		if c > 1 {
			st.DisconnectedParts++
		}
		if int(c) > st.MaxComponents {
			st.MaxComponents = int(c)
		}
	}
	return st, nil
}

// sweep is StatsOver's one pass over the rows: cut accounting per vertex, and
// a union-find over same-part edges (each undirected edge once, from its
// higher end) whose roots are the connected components of the parts.
// stamp[q] is 1 + the last vertex that counted q among its remote parts.
type sweep struct {
	assign, stamp, parent, vsize      []int32
	ptrBuf, adjBuf, wtBuf             []int32 // Rows' buffers; nil for a CSR graph, which ignores them
	spcv                              []int64
	cutWeight, cutEdges, cutRows, tcv int64 // cut edges counted once per direction
}

// read accounts rows [lo, hi) as Rows returns them, statsBlock at a time.
func (s *sweep) read(a Adjacency, lo, hi int) {
	for ; lo < hi; lo += statsBlock {
		end := min(lo+statsBlock, hi)
		ptr, adj, wts := a.Rows(lo, end, s.ptrBuf, s.adjBuf, s.wtBuf)
		s.rows(lo, end, ptr, adj, wts)
	}
}

// rows is the row body: it accounts rows [lo, hi), row v being adj[ptr[v-lo]:
// ptr[v-lo+1]] with wts parallel or, when ptr is nil (a stencil span), v+adj[k]
// with weight wts[k]. Both ascend, so the unions come in the same order.
func (s *sweep) rows(lo, hi int, ptr, adj, wts []int32) {
	assign, stamp, parent, vsize, spcv := s.assign, s.stamp, s.parent, s.vsize, s.spcv
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
		pv, tag := assign[v], int32(v)+1
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
