package metis

import (
	"runtime"
	"sync"

	"sfccube/internal/prng"
)

// bisect computes a 2-way split of g with target weight tw0 for side 0,
// using the full multilevel scheme: coarsen, greedy-graph-growing initial
// bisection, then FM refinement during uncoarsening. It returns the side
// (0 or 1) of every vertex in a workspace-owned buffer; the caller releases
// it with ws.putSide once the subgraphs are built.
func bisect(g *wgraph, tw0, band float64, rng *prng.Stream, ws *workspace, stop *stopper) []int8 {
	levels, coarsest := coarsen(g, coarsenTo, rng, ws, stop)
	side := initialBisection(coarsest, tw0, band, rng, ws, stop)
	fmRefine(coarsest, side, tw0, band, refineIters, ws, stop)
	// Project back through the hierarchy, refining at every level. The side
	// buffers ping-pong through the workspace free list instead of
	// allocating one per level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fineSide := ws.side(lv.fine.n())
		for v := range fineSide {
			fineSide[v] = side[lv.cmap[v]]
		}
		ws.putSide(side)
		side = fineSide
		fmRefine(lv.fine, side, tw0, band, refineIters, ws, stop)
	}
	return side
}

// initialBisection runs several greedy-graph-growing attempts from random
// seeds and keeps the one with the smallest cut after balancing.
func initialBisection(g *wgraph, tw0, band float64, rng *prng.Stream, ws *workspace, stop *stopper) []int8 {
	n := g.n()
	best := ws.side(n)
	if n == 1 {
		best[0] = 0
		return best
	}
	trial := ws.side(n)
	var bestCut int64 = -1
	// A graph with n vertices has at most n distinct growth seeds, so extra
	// trials beyond that only repeat work on the tiny leaf graphs of a deep
	// recursive-bisection tree.
	trials := initTrials
	if trials > n {
		trials = n
	}
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
	ws.putSide(trial)
	return best
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
	inFrontier := growBool(ws.inFrontier, n)
	ws.inFrontier = inFrontier
	for i := range inFrontier {
		inFrontier[i] = false
	}
	gain := growI64(ws.gain, n)
	ws.gain = gain
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
// side value. It returns the subgraph and the list mapping subgraph vertex
// ids back to g's vertex ids. The id-translation scratch comes from the
// workspace; the subgraph itself is allocated exactly (one sizing prepass)
// because it outlives this call as a recursion operand.
func subgraph(g *wgraph, side []int8, want int8, ws *workspace) (*wgraph, []int32) {
	n := g.n()
	newID := growI32(ws.newID, n)
	ws.newID = newID
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
	verts := make([]int32, 0, nv)
	sub := &wgraph{
		xadj:  make([]int32, nv+1),
		vwgt:  make([]int32, nv),
		vsize: make([]int32, nv),
		adj:   make([]int32, 0, deg),
		ewgt:  make([]int32, 0, deg),
	}
	for v := int32(0); v < int32(n); v++ {
		if side[v] != want {
			continue
		}
		i := len(verts)
		verts = append(verts, v)
		sub.vwgt[i] = g.vwgt[v]
		sub.vsize[i] = g.vsize[v]
		adj, wgt := g.deg(v)
		for j, u := range adj {
			if newID[u] >= 0 {
				sub.adj = append(sub.adj, newID[u])
				sub.ewgt = append(sub.ewgt, wgt[j])
			}
		}
		sub.xadj[i+1] = int32(len(sub.adj))
	}
	return sub, verts
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
func maxRBWorkers() int {
	w := runtime.GOMAXPROCS(0) - 1
	if w < 0 {
		w = 0
	}
	return w
}

// runRB performs multilevel recursive bisection of g (whose original vertex
// ids are verts) into nparts parts starting at firstPart, writing into
// assign. The two subtrees after each bisection are independent, so they are
// fanned out on goroutines up to maxRBWorkers; every subtree draws from its
// own RNG stream derived deterministically from the seed and the subtree's
// position in the bisection tree, which makes the result bit-identical
// regardless of GOMAXPROCS or scheduling.
func runRB(g *wgraph, verts []int32, firstPart, nparts int, assign []int32, seed uint64, stop *stopper) {
	c := &rbCtx{assign: assign, sem: make(chan struct{}, maxRBWorkers()), stop: stop}
	ws := getWS()
	c.recurse(g, verts, firstPart, nparts, prng.Mix(seed), ws)
	putWS(ws)
	c.wg.Wait()
}

// recurse assigns parts [firstPart, firstPart+nparts) to the vertices of g,
// whose original graph ids are given by origVerts, writing the result into
// c.assign (indexed by original ids).
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
	left, leftVerts := subgraph(g, side, 0, ws)
	right, rightVerts := subgraph(g, side, 1, ws)
	ws.putSide(side)
	leftOrig := make([]int32, len(leftVerts))
	for i, lv := range leftVerts {
		leftOrig[i] = origVerts[lv]
	}
	rightOrig := make([]int32, len(rightVerts))
	for i, rv := range rightVerts {
		rightOrig[i] = origVerts[rv]
	}
	if len(leftOrig) < nLeft || len(rightOrig) < nRight {
		for i, v := range origVerts {
			c.assign[v] = int32(firstPart + i*nparts/len(origVerts))
		}
		return
	}
	leftSeed, rightSeed := childSeed(seed, 0), childSeed(seed, 1)
	// Fan the left subtree out to a worker when a slot is free; otherwise
	// recurse inline. Workers never block on the semaphore, so the recursion
	// cannot deadlock, and the derived seeds make the outcome identical
	// either way.
	select {
	case c.sem <- struct{}{}:
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			wsL := getWS()
			c.recurse(left, leftOrig, firstPart, nLeft, leftSeed, wsL)
			putWS(wsL)
			<-c.sem
		}()
	default:
		c.recurse(left, leftOrig, firstPart, nLeft, leftSeed, ws)
	}
	c.recurse(right, rightOrig, firstPart+nLeft, nRight, rightSeed, ws)
}
