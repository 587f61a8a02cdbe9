// Package metis is a from-scratch multilevel graph partitioner providing the
// three METIS algorithms the paper compares against (Dennis, IPPS 2003,
// section 2):
//
//   - RB: multilevel recursive bisection — best load balance, but larger
//     edgecuts and total communication volume.
//   - KWay: multilevel K-way partitioning minimising the edgecut — low
//     edgecut, possibly sub-optimal load balance.
//   - KWayVol: the K-way variant minimising total communication volume (TV).
//
// The implementation follows the classical multilevel scheme of Karypis and
// Kumar: heavy-edge-matching coarsening, greedy-graph-growing initial
// bisection, and Fiduccia-Mattheyses (2-way) or greedy (K-way) refinement
// during uncoarsening. The hot paths are engineered for partitioning as an
// online cost rather than one-shot preprocessing:
//
//   - FM move selection uses gain buckets (see gainBuckets), making a
//     refinement pass O(E) instead of O(n·moves);
//   - K-way refinement is boundary-driven: only vertices whose
//     neighbourhood changed are revisited, and all per-vertex set
//     arithmetic runs on epoch-stamped scratch arrays;
//   - the recursive-bisection subtrees fan out on goroutines, each with an
//     RNG stream derived deterministically from Options.Seed and the
//     subtree position, so results are bit-identical for any GOMAXPROCS;
//   - per-goroutine workspaces (sync.Pool) carry every scratch buffer
//     across coarsening levels, init trials and refinement passes, and the
//     operand stack the subgraphs and coarse levels are pushed on and
//     popped from: the recursion allocates nothing per tree node.
//
// It is deterministic for a fixed Options.Seed: repeated runs and any
// GOMAXPROCS setting produce byte-identical assignments.
package metis

import (
	"context"

	"sfccube/internal/graph"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
)

// Method selects the partitioning algorithm.
type Method int

const (
	// RB is multilevel recursive bisection.
	RB Method = iota
	// KWay is multilevel K-way partitioning minimising edgecut.
	KWay
	// KWayVol is multilevel K-way partitioning minimising total
	// communication volume.
	KWayVol
)

func (m Method) String() string {
	switch m {
	case RB:
		return "RB"
	case KWay:
		return "KWAY"
	case KWayVol:
		return "TV"
	}
	return "Method(?)"
}

// The multilevel tunables, at their METIS 4.x values.
const (
	// imbalance is the allowed K-way imbalance: the maximum part weight may
	// reach ceil(avg * (1 + imbalance)). 0.03 is the METIS default.
	imbalance = 0.03
	// rbImbalance is the imbalance each recursive bisection may leave in
	// exchange for a lower cut, as a fraction of the bisected graph's
	// weight -- the semantics of METIS's UBfactor, whose default of 1
	// (percent) this reproduces. The deviations compound down the
	// bisection tree, which is why METIS partitions of O(1) elements per
	// processor show the computational load imbalance the paper reports.
	rbImbalance = 0.005
	// coarsenTo stops coarsening once the graph has at most this many
	// vertices (scaled by the number of parts for K-way).
	coarsenTo = 40
	// initTrials is the number of random greedy-graph-growing attempts per
	// initial bisection (capped by the coarsest graph's vertex count):
	// METIS's GGGP trial count.
	initTrials = 4
	// refineIters bounds the refinement passes per level.
	refineIters = 10
)

// Options configures the partitioner. The zero value is RB with seed 1.
type Options struct {
	Method Method
	// Seed makes runs reproducible; 0 means seed 1.
	Seed int64
	// Obs, when non-nil, receives the partitioner's metrics (coarsening
	// sizes, FM pass gains, refinement convergence; see DESIGN.md
	// "Observability"). Observation is purely atomic and never touches the
	// RNG streams, so an instrumented run produces byte-identical
	// assignments. Nil disables all instrumentation at one branch per
	// observation site.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Partition divides graph gr into nparts parts using the configured method.
// It is PartitionCtx without a deadline; see PartitionCtx for the
// cancellable variant used by the resilience layer.
func Partition(gr *graph.Graph, nparts int, opt Options) (*partition.Partition, error) {
	return PartitionCtx(context.Background(), gr, nparts, opt)
}

// wgraph is the working representation used during multilevel partitioning:
// plain CSR with vertex weights and communication sizes.
type wgraph struct {
	xadj  []int32
	adj   []int32
	ewgt  []int32
	vwgt  []int32
	vsize []int32

	// Cached degree/weight statistics (see stats): a graph is refined many
	// times — once per init trial plus once per V-cycle level — and the FM
	// preamble used to rescan all edges on every call.
	maxVW, minVW, maxDeg int64
	statsValid           bool
}

func (g *wgraph) n() int { return len(g.vwgt) }

// stats returns the maximum/minimum vertex weight and the maximum weighted
// degree, computing and caching them on first use.
func (g *wgraph) stats() (maxVW, minVW, maxDeg int64) {
	if !g.statsValid {
		g.maxVW, g.minVW, g.maxDeg = 1, 1<<62, 1
		for v := 0; v < g.n(); v++ {
			w := int64(g.vwgt[v])
			if w > g.maxVW {
				g.maxVW = w
			}
			if w < g.minVW {
				g.minVW = w
			}
			var wd int64
			for _, ew := range g.ewgt[g.xadj[v]:g.xadj[v+1]] {
				wd += int64(ew)
			}
			if wd > g.maxDeg {
				g.maxDeg = wd
			}
		}
		g.statsValid = true
	}
	return g.maxVW, g.minVW, g.maxDeg
}

func (g *wgraph) deg(v int32) (adj, wgt []int32) {
	return g.adj[g.xadj[v]:g.xadj[v+1]], g.ewgt[g.xadj[v]:g.xadj[v+1]]
}

func (g *wgraph) totalVWgt() int64 {
	var s int64
	for _, w := range g.vwgt {
		s += int64(w)
	}
	return s
}

// fromGraph views gr as the finest working graph without copying it: the two
// are the same int32 CSR, and the multilevel phases write only graphs they
// allocated themselves (coarse levels, bisection subgraphs), never this one.
func fromGraph(gr *graph.Graph) *wgraph {
	xadj, adj, ewgt := gr.CSR()
	return &wgraph{xadj: xadj, adj: adj, ewgt: ewgt, vwgt: gr.VertexWeights(), vsize: gr.VertexSizes()}
}
