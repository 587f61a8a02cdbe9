package metis

import (
	"runtime"
	"sync"

	"sfccube/internal/prng"
)

// bisect computes a 2-way split of g with target weight tw0 for side 0,
// using the full multilevel scheme: coarsen, greedy-graph-growing initial
// bisection, then FM refinement during uncoarsening. The V-cycle's levels
// are popped from ws before it returns; the side (0 or 1) of every vertex
// comes back in a workspace-owned buffer the caller releases with
// ws.putSide once the subgraphs are built.
func bisect(g *wgraph, tw0, band float64, rng *prng.Stream, ws *workspace, stop *stopper) []int8 {
	// Two buffers sized for the finest level: the trials and the projection
	// ping-pong between them, whatever the depth of the hierarchy.
	side, spare := ws.side(g.n()), ws.side(g.n())
	m := ws.mark()
	levels, coarsest := coarsen(g, coarsenTo, rng, ws, stop)
	side, spare = side[:coarsest.n()], spare[:coarsest.n()]
	initialBisection(coarsest, tw0, band, rng, ws, stop, side, spare)
	fmRefine(coarsest, side, tw0, band, refineIters, ws, stop)
	// Project back through the hierarchy, refining at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fineSide := spare[:lv.fine.n()]
		for v := range fineSide {
			fineSide[v] = side[lv.cmap[v]]
		}
		side, spare = fineSide, side
		fmRefine(lv.fine, side, tw0, band, refineIters, ws, stop)
	}
	ws.release(m)
	ws.putSide(spare)
	return side
}

// initialBisection runs several greedy-graph-growing attempts from random
// seeds and leaves the one with the smallest cut after balancing in best;
// trial is scratch of the same length.
func initialBisection(g *wgraph, tw0, band float64, rng *prng.Stream, ws *workspace, stop *stopper, best, trial []int8) {
	n := g.n()
	if n == 1 {
		best[0] = 0
		return
	}
	var bestCut int64 = -1
	// A graph with n vertices has at most n distinct growth seeds, so extra
	// trials beyond that only repeat work on the tiny leaf graphs of a deep
	// recursive-bisection tree.
	trials := min(initTrials, n)
	// Each trial gets a short refinement (two passes) — just enough to rank
	// candidate bisections fairly; the winner receives the full refinement
	// budget in bisect's uncoarsening sweep, so depth here buys nothing.
	for t := 0; t < trials; t++ {
		growRegion(g, tw0, rng, ws, trial)
		cut := fmRefine(g, trial, tw0, band, 2, ws, stop)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			copy(best, trial)
		}
	}
}

// growRegion grows side 0 from a random seed vertex, always absorbing the
// frontier vertex with the highest gain (external minus internal degree,
// i.e. the vertex whose absorption reduces the future cut the most), until
// side 0 reaches the target weight. The result is written into side.
func growRegion(g *wgraph, tw0 float64, rng *prng.Stream, ws *workspace, side []int8) {
	n := g.n()
	for i := range side {
		side[i] = 1
	}
	seed := int32(rng.Intn(n))
	var w0 int64

	// gain[v] = (weight to side 0) - (weight to side 1) for frontier
	// vertices; grown vertices are marked in side.
	inFrontier := grow(&ws.inFrontier, n)
	for i := range inFrontier {
		inFrontier[i] = false
	}
	gain := grow(&ws.gain, n)
	frontier := ws.frontier[:0]
	defer func() { ws.frontier = frontier[:0] }()

	absorb := func(v int32) {
		side[v] = 0
		w0 += int64(g.vwgt[v])
		adj, wgt := g.deg(v)
		for i, u := range adj {
			if side[u] == 0 {
				continue
			}
			if !inFrontier[u] {
				inFrontier[u] = true
				gain[u] = 0
				frontier = append(frontier, u)
			}
			gain[u] += int64(wgt[i])
		}
	}
	absorb(seed)
	for float64(w0) < tw0 {
		// Pick the frontier vertex with max gain whose weight keeps us
		// closest to the target.
		bestIdx := -1
		var bestGain int64
		for i, u := range frontier {
			if side[u] == 0 {
				continue // already absorbed
			}
			if bestIdx < 0 || gain[u] > bestGain {
				bestIdx, bestGain = i, gain[u]
			}
		}
		if bestIdx < 0 {
			// Disconnected remainder: jump to a random unabsorbed vertex.
			v := int32(-1)
			for try := 0; try < n; try++ {
				cand := int32(rng.Intn(n))
				if side[cand] == 1 {
					v = cand
					break
				}
			}
			if v < 0 {
				break
			}
			absorb(v)
			continue
		}
		v := frontier[bestIdx]
		frontier[bestIdx] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		inFrontier[v] = false
		absorb(v)
	}
}

// subgraph extracts the induced subgraph of g on the vertices with the given
// side value and, in the same pass, their original ids (origVerts translates
// g's). Both are pushed on dst's operand stack — the workspace of the frame
// that will recurse on them — while the id-translation scratch is ws's.
func subgraph(g *wgraph, origVerts []int32, side []int8, want int8, ws, dst *workspace) (*wgraph, []int32) {
	n := g.n()
	newID := grow(&ws.newID, n)
	nv, deg := 0, 0
	for v := int32(0); v < int32(n); v++ {
		if side[v] == want {
			newID[v] = int32(nv)
			nv++
			deg += int(g.xadj[v+1] - g.xadj[v])
		} else {
			newID[v] = -1
		}
	}
	sub, orig := dst.graph(), dst.alloc(nv)
	sub.xadj, sub.vwgt, sub.vsize = dst.alloc(nv+1), dst.alloc(nv), dst.alloc(nv)
	adj, ewgt := dst.alloc(deg), dst.alloc(deg)
	sub.xadj[0] = 0
	i, e := 0, 0
	for v := int32(0); v < int32(n); v++ {
		if side[v] != want {
			continue
		}
		orig[i] = origVerts[v]
		sub.vwgt[i] = g.vwgt[v]
		sub.vsize[i] = g.vsize[v]
		a, w := g.deg(v)
		for j, u := range a {
			if newID[u] >= 0 {
				adj[e], ewgt[e] = newID[u], w[j]
				e++
			}
		}
		i++
		sub.xadj[i] = int32(e)
	}
	sub.adj, sub.ewgt = adj[:e], ewgt[:e]
	return sub, orig
}

// rbCtx carries the shared state of one parallel recursive-bisection run:
// the output assignment (subtrees write disjoint index ranges) and a
// semaphore bounding the extra worker goroutines.
type rbCtx struct {
	assign []int32
	sem    chan struct{}
	wg     sync.WaitGroup
	stop   *stopper
}

// maxRBWorkers is the number of extra goroutines a recursive bisection may
// fan out on top of the calling goroutine.
func maxRBWorkers() int { return runtime.GOMAXPROCS(0) - 1 }

// runRB performs multilevel recursive bisection of g into nparts parts,
// writing into assign. The two subtrees after each bisection are independent,
// so they are fanned out on goroutines up to maxRBWorkers; every subtree
// draws from its own RNG stream derived deterministically from the seed and
// the subtree's position in the bisection tree, which makes the result
// bit-identical regardless of GOMAXPROCS or scheduling.
func runRB(g *wgraph, nparts int, assign []int32, seed uint64, stop *stopper) {
	c := &rbCtx{assign: assign, sem: make(chan struct{}, maxRBWorkers()), stop: stop}
	ws := getWS()
	m := ws.mark()
	verts := ws.alloc(g.n())
	for i := range verts {
		verts[i] = int32(i)
	}
	c.recurse(g, verts, 0, nparts, prng.Mix(seed), ws)
	ws.release(m)
	putWS(ws) // no fanned-out frame can reach it: see workspace
	c.wg.Wait()
}

// recurse assigns parts [firstPart, firstPart+nparts) to the vertices of g,
// whose original graph ids are given by origVerts, writing the result into
// c.assign (indexed by original ids). Children live on the operand stack:
// the left one is extracted, recursed on and popped before the right one is
// extracted, so the stack never holds both.
func (c *rbCtx) recurse(g *wgraph, origVerts []int32, firstPart, nparts int, seed uint64, ws *workspace) {
	if c.stop.stopped() {
		return // deadline poll per bisection-tree node; result is discarded
	}
	if nparts == 1 {
		for _, v := range origVerts {
			c.assign[v] = int32(firstPart)
		}
		return
	}
	c.stop.obs().observeBisection()
	rng := prng.New(seed)
	nLeft := (nparts + 1) / 2
	nRight := nparts - nLeft
	total := g.totalVWgt()
	tw0 := float64(total) * float64(nLeft) / float64(nparts)
	// The METIS-style UBfactor band: each bisection may trade this much
	// imbalance for cut quality; the drift compounds down the tree.
	band := rbImbalance * float64(total)
	side := bisect(g, tw0, band, rng, ws, c.stop)
	onLeft := 0
	for _, s := range side {
		onLeft += int(1 - s)
	}
	if onLeft < nLeft || len(side)-onLeft < nRight {
		for i, v := range origVerts {
			c.assign[v] = int32(firstPart + i*nparts/len(origVerts))
		}
		ws.putSide(side)
		return
	}
	leftSeed, rightSeed := childSeed(seed, 0), childSeed(seed, 1)
	// Fan the left subtree out to a worker when a slot is free; otherwise
	// recurse inline. Workers never block on the semaphore, so the recursion
	// cannot deadlock, and the derived seeds make the outcome identical
	// either way.
	m := ws.mark()
	select {
	case c.sem <- struct{}{}:
		wsL := getWS()
		mL := wsL.mark()
		left, leftIDs := subgraph(g, origVerts, side, 0, ws, wsL)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.recurse(left, leftIDs, firstPart, nLeft, leftSeed, wsL)
			wsL.release(mL)
			putWS(wsL)
			<-c.sem
		}()
	default:
		left, leftIDs := subgraph(g, origVerts, side, 0, ws, ws)
		c.recurse(left, leftIDs, firstPart, nLeft, leftSeed, ws)
		ws.release(m)
	}
	right, rightIDs := subgraph(g, origVerts, side, 1, ws, ws)
	ws.putSide(side)
	c.recurse(right, rightIDs, firstPart+nLeft, nRight, rightSeed, ws)
	ws.release(m)
}
