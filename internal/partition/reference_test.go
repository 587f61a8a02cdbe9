package partition

import (
	"fmt"
	"math"

	"sfccube/internal/graph"
)

// StatsOverBlocked is the reference the differential tests hold StatsOver to.
var StatsOverBlocked = statsOverBlocked

// statsOverBlocked is StatsOver as it was before the sweep read the mesh
// stencil: every row, face-interior or not, is read out of a CSR graph a
// block of 128 at a time. Its sweep is kept verbatim as the reference for
// TestStatsStencilMatchesReference and FuzzStatsView; its load prelude
// follows StatsOver's contract (one load vector, the explicit weights when
// given).
func statsOverBlocked(a *graph.Graph, p *Partition, weights []int64) (Stats, error) {
	n, nparts, assign := a.NumVertices(), p.NumParts(), p.Assignment()
	if len(assign) != n {
		return Stats{}, fmt.Errorf("partition: %d vertices but graph has %d", len(assign), n)
	}
	// The load: an explicit weight vector when there is one, else the
	// vertex weights, else the counts.
	st := Stats{NParts: nparts}
	st.Nelemd = p.Counts()
	switch vw := a.VertexWeights(); {
	case weights != nil:
		if len(weights) != n {
			return Stats{}, fmt.Errorf("partition: %d weights for %d vertices", len(weights), n)
		}
		if err := ValidateWeights(weights); err != nil {
			return Stats{}, err
		}
		st.PartWeights = make([]int64, nparts)
		for v, w := range weights {
			st.PartWeights[assign[v]] += w
		}
		st.LBNelemd = LoadBalance(st.PartWeights)
	case vw != nil:
		wc := make([]int64, nparts)
		for v, q := range assign {
			wc[q] += int64(vw[v])
		}
		st.LBNelemd = LoadBalance(wc)
	default:
		st.LBNelemd = LoadBalance(st.Nelemd)
	}
	st.LBWeighted = st.LBNelemd

	// One sweep over the rows, a block at a time: cut accounting per vertex,
	// and a union-find over same-part edges (each undirected edge once, from
	// its higher end) whose roots are the connected components of the parts.
	// stamp[q] is 1 + the last vertex that counted q among its remote parts.
	st.Spcv = make([]int64, nparts)
	stamp := make([]int32, nparts)
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	vsize := a.VertexSizes()
	xadj, adj, wts := a.CSR()
	for lo := 0; lo < n; lo += 128 {
		hi := min(lo+128, n)
		ptr := xadj[lo : hi+1]
		start := ptr[0]
		for k, end := range ptr[1:] {
			v := lo + k
			pv, row, wrow := assign[v], adj[start:end], wts[start:end]
			start = end
			var cutW, cutN, remote int64
			for i, u := range row {
				if pu := assign[u]; pu != pv {
					cutW += int64(wrow[i])
					cutN++
					if stamp[pu] != int32(v)+1 {
						stamp[pu] = int32(v) + 1
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
			st.Spcv[pv] += cutW
			st.EdgeCut += cutW // counted once per direction; halved below
			st.EdgeCutUnweighted += cutN
			st.CutVertices++
			if vsize != nil {
				remote *= int64(vsize[v])
			}
			st.TotalCommVolume += remote
		}
	}
	st.EdgeCut /= 2
	st.EdgeCutUnweighted /= 2
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
	clear(stamp)
	for v, r := range parent {
		if int(r) == v {
			stamp[assign[v]]++
		}
	}
	st.MaxComponents = 1
	for _, c := range stamp {
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

// greedySplitPoints is splitPoints as it was before the weighted split
// became optimal: one greedy prefix walk along the visit order that, for
// each part, extends the segment while the running weight is closer to the
// remaining average than stopping, keeping one item per remaining part
// available. Kept verbatim as the reference the optimal split is held to
// (TestSplitPointsOptimal, TestSplitPointsKeepsOptimalGreedy,
// FuzzSplitAlong): never heavier, and the same cuts wherever it was already
// optimal.
func greedySplitPoints[I ~int](order []I, weights []int64, nparts int, total int64) []int {
	n := len(order)
	starts := make([]int, nparts+1)
	pos := 0
	remaining := total
	for part := 0; part < nparts-1; part++ {
		starts[part] = pos
		partsLeft := nparts - part
		target := float64(remaining) / float64(partsLeft)
		// Always take at least one item, then the next only while it brings
		// the segment closer to target.
		acc := weights[order[pos]]
		for pos++; pos < n-(partsLeft-1); pos++ {
			w := weights[order[pos]]
			if math.Abs(float64(acc+w)-target) > math.Abs(float64(acc)-target) {
				break
			}
			acc += w
		}
		remaining -= acc
	}
	// The last part takes everything left.
	starts[nparts-1], starts[nparts] = pos, n
	return starts
}
