package metis

import "sfccube/internal/prng"

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
		// Above the parallel threshold, matching fans out over fixed vertex
		// blocks with per-block RNG streams (byte-identical at any
		// GOMAXPROCS); the path choice depends only on the vertex count, so
		// it is itself deterministic. One sequential draw per level keeps
		// the level seeds a pure function of the partition seed.
		var cmap []int32
		var nc int
		if cur.n() >= parCoarsenMinVertices {
			cmap, nc = heavyEdgeMatchBlocked(cur, rng.Uint64(), ws)
		} else {
			cmap, nc = heavyEdgeMatch(cur, rng, ws)
		}
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

// heavyEdgeMatch computes a heavy-edge matching: vertices are visited in
// random order, and each unmatched vertex is matched with its unmatched
// neighbour connected by the heaviest edge. It returns the fine-to-coarse
// map and the number of coarse vertices. The visit order comes from the
// workspace's reused index buffer, re-shuffled in place (no per-level
// rng.Perm allocation).
func heavyEdgeMatch(g *wgraph, rng *prng.Stream, ws *workspace) (cmap []int32, nc int) {
	n := g.n()
	match := grow(&ws.match, n)
	for i := range match {
		match[i] = -1
	}
	perm := grow(&ws.perm, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, v := range perm {
		if match[v] >= 0 {
			continue
		}
		adj, wgt := g.deg(v)
		best := int32(-1)
		var bestW int32 = -1
		for i, u := range adj {
			if match[u] < 0 && wgt[i] > bestW {
				best, bestW = u, wgt[i]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return numberMatches(match, n, ws)
}

// numberMatches assigns sequential coarse ids to a completed matching: the
// lower-indexed endpoint of each pair owns the coarse id. Shared by the
// sequential and blocked matchers so both number identically. The map is
// pushed on ws's operand stack.
func numberMatches(match []int32, n int, ws *workspace) (cmap []int32, nc int) {
	cmap = ws.alloc(n)
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = next
		if match[v] != v {
			cmap[match[v]] = next
		}
		next++
	}
	return cmap, int(next)
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
