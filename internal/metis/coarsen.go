package metis

import (
	"sfccube/internal/par"
	"sfccube/internal/prng"
)

// coarseLevel records one level of the multilevel hierarchy: the coarse
// graph and the mapping from fine vertices to coarse vertices.
type coarseLevel struct {
	fine   *wgraph
	coarse *wgraph
	cmap   []int32 // fine vertex -> coarse vertex
}

// coarsen repeatedly contracts heavy-edge matchings of g until the graph has
// at most coarsenTo vertices or contraction stalls (reduction < 5%).
// It returns the hierarchy from finest to coarsest; the coarsest graph is
// levels[len-1].coarse (or g itself when no contraction happened). Every
// level is pushed on ws's operand stack and the hierarchy itself is ws's: the
// caller pops them with the mark it took before the call.
// Cancellation is polled once per level; an early stop simply leaves the
// hierarchy shallower (the caller aborts before using the result).
func coarsen(g *wgraph, coarsenTo int, rng *prng.Stream, ws *workspace, stop *stopper) ([]coarseLevel, *wgraph) {
	levels := ws.levels[:0]
	cur := g
	for cur.n() > coarsenTo {
		if stop.stopped() {
			break
		}
		cmap, nc := heavyEdgeMatch(cur, rng, ws)
		if nc >= cur.n() || float64(nc) > 0.95*float64(cur.n()) {
			break // matching stalled; stop coarsening
		}
		next := contract(cur, cmap, nc, ws)
		levels = append(levels, coarseLevel{fine: cur, coarse: next, cmap: cmap})
		cur = next
	}
	ws.levels = levels
	stop.obs().observeCoarsen(levels)
	return levels, cur
}

// heavyEdgeMatch computes a heavy-edge matching of g and returns the
// fine-to-coarse map, pushed on ws's operand stack, and the number of coarse
// vertices; the lower-indexed endpoint of each pair owns the coarse id.
// Every vertex is matched by matchBlock. Below parCoarsenMinVertices the
// whole graph is one block visited in rng's order. Above it, fixed blocks of
// matchBlockSize vertices run concurrently, block b on the stream
// childSeed(s, b) of one draw s from rng: the blocks depend only on the
// vertex count, so the matching is byte-identical at any GOMAXPROCS and the
// level seeds stay a pure function of the partition seed.
func heavyEdgeMatch(g *wgraph, rng *prng.Stream, ws *workspace) (cmap []int32, nc int) {
	n := g.n()
	match, perm := grow(&ws.match, n), grow(&ws.perm, n)
	if n < parCoarsenMinVertices {
		matchBlock(g, 0, n, rng, match, perm)
	} else {
		seed := rng.Uint64()
		par.ForBlocks((n+matchBlockSize-1)/matchBlockSize, func(b int) {
			lo := b * matchBlockSize
			matchBlock(g, lo, min(lo+matchBlockSize, n), prng.New(childSeed(seed, uint64(b))), match, perm)
		})
	}
	cmap = ws.alloc(n)
	for v := range cmap {
		if m := int(match[v]); m >= v { // else the partner numbered v
			cmap[v], cmap[m] = int32(nc), int32(nc)
			nc++
		}
	}
	return cmap, nc
}

// matchBlock matches the vertices of the block [lo, hi) among themselves:
// they are visited in the order rng shuffles them to, and each unmatched one
// is matched with its unmatched block neighbour across the heaviest edge, or
// with itself when it has none. A block reads and writes only match[lo:hi]
// and perm[lo:hi], so disjoint blocks can run concurrently; with
// locality-ordered vertex ids, leaving cross-block edges out costs a sliver
// of matching quality at the block seams.
func matchBlock(g *wgraph, lo, hi int, rng *prng.Stream, match, perm []int32) {
	for i := lo; i < hi; i++ {
		match[i], perm[i] = -1, int32(i)
	}
	blk := perm[lo:hi]
	rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	for _, v := range blk {
		if match[v] >= 0 {
			continue
		}
		adj, wgt := g.deg(v)
		best, bestW := v, int32(-1)
		for i, u := range adj {
			// Only same-block candidates: match[u] for foreign u is owned
			// by another goroutine and must not be read.
			if int(u) >= lo && int(u) < hi && match[u] < 0 && wgt[i] > bestW {
				best, bestW = u, wgt[i]
			}
		}
		match[v], match[best] = best, v
	}
}

// contract builds the coarse graph induced by cmap. Edge weights between
// coarse vertices are the sums of the fine edge weights; edges internal to a
// coarse vertex disappear. Vertex weights and sizes are summed. Large
// coarse graphs route to the chunk-parallel exact-size contraction, which
// emits bitwise-identical rows (the dispatch depends only on nc, so the
// choice itself is deterministic).
func contract(g *wgraph, cmap []int32, nc int, ws *workspace) *wgraph {
	if nc >= parCoarsenMinVertices {
		return contractParallel(g, cmap, nc, ws)
	}
	return contractSerial(g, cmap, nc, ws)
}

// coarseVertices pushes the coarse graph's header and vertex arrays (weights
// and sizes summed over the members of each coarse vertex; xadj[1:] is the
// caller's to fill) and orders the fine vertices by coarse owner with a
// counting sort: the members of c are morder[mstart[c]:mstart[c+1]], the
// order that fixes the emission order of every coarse row.
func coarseVertices(g *wgraph, cmap []int32, nc int, ws *workspace) (coarse *wgraph, morder, mstart []int32) {
	coarse = ws.graph()
	coarse.xadj, coarse.vwgt, coarse.vsize = ws.alloc(nc+1), ws.alloc(nc), ws.alloc(nc)
	coarse.xadj[0] = 0
	mstart = grow(&ws.mstart, nc+1)
	for c := 0; c < nc; c++ {
		coarse.vwgt[c], coarse.vsize[c], mstart[c+1] = 0, 0, 0
	}
	mstart[0] = 0
	n := g.n()
	for v := 0; v < n; v++ {
		c := cmap[v]
		coarse.vwgt[c] += g.vwgt[v]
		coarse.vsize[c] += g.vsize[v]
		mstart[c+1]++
	}
	for c := 0; c < nc; c++ {
		mstart[c+1] += mstart[c]
	}
	morder = grow(&ws.morder, n)
	pos := grow(&ws.pos, nc)
	copy(pos, mstart[:nc])
	for v := int32(0); v < int32(n); v++ {
		c := cmap[v]
		morder[pos[c]] = v
		pos[c]++
	}
	return coarse, morder, mstart
}

// stamps returns the contraction's lazy row stamps, indexed by coarse vertex
// and cleared to -1.
func (ws *workspace) stamps(nc int) []int32 {
	grow(&ws.cstamp, nc)
	for i := range ws.cstamp {
		ws.cstamp[i] = -1
	}
	return ws.cstamp
}

// contractSerial is the single-goroutine contraction. All scratch (member
// ordering, row positions, stamps) lives in the workspace. The rows are
// written into one block pushed for the fine edge count — a coarse graph
// cannot have more — and the unused tail is popped again once the coarse
// count is known.
func contractSerial(g *wgraph, cmap []int32, nc int, ws *workspace) *wgraph {
	coarse, morder, mstart := coarseVertices(g, cmap, nc, ws)
	// Accumulate coarse adjacency with a dense scratch indexed by coarse id
	// (reset lazily via a stamp array to stay O(E)). pos is reused as the
	// position of each coarse neighbour in the current row; reads are guarded
	// by the stamp, so the counting-sort cursors in it need no clearing.
	pos := ws.pos
	stamp := ws.stamps(nc)
	m := len(g.adj)
	rows := ws.alloc(2 * m)
	adj, ewgt := rows[:m], rows[m:]
	e := int32(0)
	for c := int32(0); c < int32(nc); c++ {
		for _, v := range morder[mstart[c]:mstart[c+1]] {
			a, w := g.deg(v)
			for i, u := range a {
				cu := cmap[u]
				if cu == c {
					continue // internal edge
				}
				if stamp[cu] != c {
					stamp[cu] = c
					pos[cu] = e
					adj[e], ewgt[e] = cu, w[i]
					e++
				} else {
					ewgt[pos[cu]] += w[i]
				}
			}
		}
		coarse.xadj[c+1] = e
	}
	copy(rows[e:], ewgt[:e])
	ws.release(wsMark{ws.top - 2*(m-int(e)), ws.ngraph}) // the unused tail
	coarse.adj, coarse.ewgt = rows[:e:e], rows[e:2*e:2*e]
	return coarse
}
