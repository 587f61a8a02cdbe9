package metis

import "sfccube/internal/prng"

// kwayPartition implements multilevel K-way partitioning: coarsen the whole
// graph, compute an initial K-way partition of the coarsest graph by
// (parallel) recursive bisection, then project back while running greedy
// K-way refinement at every level. The refinement objective is the edgecut
// for Method KWay and the total communication volume for Method KWayVol.
// The answer is written into out; the levels and every coarser assignment
// live on ws's operand stack and are popped before returning.
func kwayPartition(g *wgraph, nparts int, out []int32, rng *prng.Stream, opt Options, stop *stopper, ws *workspace) {
	defer ws.release(ws.mark())
	// Keep enough coarse vertices to seed every part.
	coarseN := max(coarsenTo*nparts/8, 4*nparts)
	levels, coarsest := coarsen(g, coarseN, rng, ws, stop)

	// Initial K-way partition of the coarsest graph via recursive bisection,
	// on an RNG stream derived from (but independent of) the main seed so
	// the parallel subtree fan-out stays deterministic.
	assign := out
	if len(levels) > 0 {
		assign = ws.alloc(coarsest.n())
	}
	runRB(coarsest, nparts, assign, childSeed(uint64(opt.Seed), 2), stop)
	if stop.stopped() {
		return // a cancelled tree leaves parts of assign unwritten
	}

	vol := opt.Method == KWayVol
	maxVW, _, _ := g.stats()
	maxPart := maxPartWeight(g.totalVWgt(), nparts, imbalance, maxVW)
	kwayRefine(coarsest, assign, nparts, maxPart, vol, refineIters, rng, ws, stop)

	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fine := out
		if i > 0 {
			fine = ws.alloc(lv.fine.n())
		}
		for v := range fine {
			fine[v] = assign[lv.cmap[v]]
		}
		assign = fine
		if stop.stopped() {
			break // deadline poll per uncoarsening level
		}
		kwayRefine(lv.fine, assign, nparts, maxPart, vol, refineIters, rng, ws, stop)
	}
}

// maxPartWeight returns the largest part weight the K-way refinement will
// tolerate. Like METIS, the K-way constraint is the larger of the relative
// tolerance avg*(1+imbalance) and the absolute slack avg+maxVW (one heaviest
// vertex): with indivisible vertices a part can always legally exceed the
// average by one vertex, and the refinement will use that freedom when it
// buys edgecut. This is exactly why the paper observes imperfect KWAY load
// balance at O(1) elements per processor while SFC stays perfect.
func maxPartWeight(total int64, nparts int, imbalance float64, maxVW int64) int64 {
	avg := float64(total) / float64(nparts)
	m := int64(avg * (1 + imbalance))
	slack := int64(avg) + maxVW
	if m < slack {
		m = slack
	}
	ceilAvg := (total + int64(nparts) - 1) / int64(nparts)
	if m < ceilAvg {
		m = ceilAvg
	}
	return m
}

// refiner is the state one K-way refinement reads and moves: the graph, the
// live assignment and part weights, the bound, and the workspace's per-part
// scratch (conn is zero between calls; ws.touched and ws.stamp are free).
type refiner struct {
	g       *wgraph
	assign  []int32
	pwgt    []int64
	conn    []int64
	maxPart int64
	ws      *workspace
}

// forceBalance evicts vertices from parts whose weight exceeds maxPart,
// sending each evicted vertex to the lightest adjacent part with room (or
// the globally lightest part when no adjacent part has room), choosing the
// eviction with the smallest cut penalty. It runs until every part is within
// the bound or no further move is possible.
func (r *refiner) forceBalance() {
	g, assign, pwgt, conn, maxPart := r.g, r.assign, r.pwgt, r.conn, r.maxPart
	n, nparts := g.n(), len(pwgt)
	touched := r.ws.touched[:0]
	defer func() { r.ws.touched = touched[:0] }()
	for {
		// Find an overweight part.
		over := int32(-1)
		for p := 0; p < nparts; p++ {
			if pwgt[p] > maxPart {
				over = int32(p)
				break
			}
		}
		if over < 0 {
			return
		}
		// Choose the vertex of that part whose eviction costs the least
		// cut, together with its best destination.
		bestV, bestDst := int32(-1), int32(-1)
		var bestLoss int64
		for v := int32(0); v < int32(n); v++ {
			if assign[v] != over {
				continue
			}
			adj, wgt := g.deg(v)
			touched = touched[:0]
			for i, u := range adj {
				p := assign[u]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += int64(wgt[i])
			}
			// Candidate destinations: adjacent parts with room, else the
			// globally lightest part.
			dst := int32(-1)
			var dstLoss int64
			for _, p := range touched {
				if p == over || pwgt[p]+int64(g.vwgt[v]) > maxPart {
					continue
				}
				loss := conn[over] - conn[p]
				if dst < 0 || loss < dstLoss || (loss == dstLoss && pwgt[p] < pwgt[dst]) {
					dst, dstLoss = p, loss
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if dst < 0 {
				// No adjacent part has room; fall back to the lightest
				// part overall.
				light := int32(0)
				for p := 1; p < nparts; p++ {
					if pwgt[p] < pwgt[light] {
						light = int32(p)
					}
				}
				if int32(over) == light || pwgt[light]+int64(g.vwgt[v]) > maxPart {
					continue
				}
				dst = light
				dstLoss = 1 << 40 // strongly prefer adjacent destinations
			}
			if bestV < 0 || dstLoss < bestLoss {
				bestV, bestDst, bestLoss = v, dst, dstLoss
			}
		}
		if bestV < 0 {
			return // stuck; cannot improve further
		}
		pwgt[over] -= int64(g.vwgt[bestV])
		pwgt[bestDst] += int64(g.vwgt[bestV])
		assign[bestV] = bestDst
	}
}

// boundaryQueue fills dst with every boundary vertex of the current
// assignment (in vertex order; the caller shuffles), marks them in ws.inQ
// (reset first), and returns the queue.
func boundaryQueue(g *wgraph, assign []int32, ws *workspace, dst []int32) []int32 {
	n := g.n()
	queue := dst[:0]
	inQ := grow(&ws.inQ, n)
	clear(inQ)
	for v := int32(0); v < int32(n); v++ {
		adj, _ := g.deg(v)
		for _, u := range adj {
			if assign[u] != assign[v] {
				queue = append(queue, v)
				inQ[v] = true
				break
			}
		}
	}
	return queue
}

// kwayRefine runs greedy K-way refinement, boundary-driven: a queue holds the
// current boundary vertices in random order, each moves to the destination
// the objective picks for it, and a move re-enqueues for the next pass only
// what it reached — the vertices whose choice it changed. The objective is
// the weighted edgecut (the classical Karypis-Kumar scheme, cutDest) or, with
// vol, the METIS-style total communication volume (volDest). It also sets the
// reach: a cut gain reads the parts of a vertex's neighbours, so a move
// reaches one hop; an exact volume evaluation reads the neighbours'
// neighbours too, so it reaches two. One pass costs O(boundary + moved·reach)
// instead of a full-graph rescan.
func kwayRefine(g *wgraph, assign []int32, nparts int, maxPart int64, vol bool, iters int, rng *prng.Stream, ws *workspace, stop *stopper) {
	pwgt, conn := grow(&ws.pwgt, nparts), grow(&ws.conn, nparts)
	clear(pwgt)
	clear(conn) // users restore zeros through their touched lists
	for v, p := range assign {
		pwgt[p] += int64(g.vwgt[v])
	}
	r := &refiner{g: g, assign: assign, pwgt: pwgt, conn: conn, maxPart: maxPart, ws: ws}
	r.forceBalance()
	dest := r.cutDest
	if vol {
		dest = r.volDest
	}
	queue := boundaryQueue(g, assign, ws, ws.queue)
	next := ws.queue2[:0]
	inQ := ws.inQ
	push := func(u int32) {
		if !inQ[u] {
			inQ[u] = true
			next = append(next, u)
		}
	}
	// full marks whether the current queue holds the entire boundary. When
	// an incremental pass stops moving, one full boundary pass verifies true
	// convergence — moves elsewhere shift part weights, which can unblock
	// balance-constrained moves the incremental queue never revisits.
	full := true

	for iter := 0; iter < iters && len(queue) > 0; iter++ {
		if stop.stopped() {
			break // deadline poll per refinement pass
		}
		rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
		moved := 0
		next = next[:0]
		for _, v := range queue {
			inQ[v] = false
			home := assign[v]
			if pwgt[home] == int64(g.vwgt[v]) {
				continue // never empty a part
			}
			best := dest(v, home)
			if best == home {
				continue
			}
			pwgt[home] -= int64(g.vwgt[v])
			pwgt[best] += int64(g.vwgt[v])
			assign[v] = best
			moved++
			// Re-enqueue the reach. Vertices still pending in the current
			// pass keep their slot (they will be evaluated against the new
			// state). The order is the one the next pass's shuffle permutes:
			// the volume enqueues the mover first and each neighbour
			// followed by its own neighbours, the cut the neighbours and
			// then the mover.
			if vol {
				push(v)
			}
			adj, _ := g.deg(v)
			for _, u := range adj {
				push(u)
				if vol {
					uadj, _ := g.deg(u)
					for _, w := range uadj {
						push(w)
					}
				}
			}
			push(v)
		}
		stop.obs().observeKWayPass(moved)
		if moved == 0 {
			if full {
				break // converged on the whole boundary
			}
			// Incremental convergence only: verify against the full
			// boundary (reusing the dead queue buffer; next is empty).
			queue = boundaryQueue(g, assign, ws, queue)
			full = true
			continue
		}
		queue, next = next, queue
		full = false
	}
	ws.queue, ws.queue2 = queue[:0], next[:0]
}

// cutDest picks v's destination under the edgecut: the adjacent part with
// room that v is most connected to, when that beats home (ties go to the
// lighter part); failing that, the first adjacent part as connected as home
// that the move leaves lighter than home — a zero-gain move that improves
// balance. It returns home when v is interior or nothing qualifies.
// Connectivity is accumulated in conn and cleared through the touched list,
// so a call costs O(deg), not O(nparts).
func (r *refiner) cutDest(v, home int32) int32 {
	adj, wgt := r.g.deg(v)
	conn, pwgt, vw := r.conn, r.pwgt, int64(r.g.vwgt[v])
	touched := r.ws.touched[:0]
	for i, u := range adj {
		p := r.assign[u]
		if conn[p] == 0 {
			touched = append(touched, p)
		}
		conn[p] += int64(wgt[i])
	}
	best, bestGain := home, int64(0)
	for _, p := range touched {
		gain := conn[p] - conn[home] // 0 for home itself
		if gain <= 0 || pwgt[p]+vw > r.maxPart {
			continue
		}
		if gain > bestGain || (gain == bestGain && pwgt[p] < pwgt[best]) {
			best, bestGain = p, gain
		}
	}
	if best == home {
		for _, p := range touched {
			if p != home && conn[p] == conn[home] && pwgt[p]+vw < pwgt[home] {
				best = p
				break
			}
		}
	}
	for _, p := range touched {
		conn[p] = 0
	}
	r.ws.touched = touched[:0]
	return best
}

// volDest picks v's destination under the total communication volume: of
// the distinct remote parts among v's neighbours (in adjacency order) that
// have room, the one after which v and its neighbours — the exact set whose
// contributions a move of v changes — contribute the least volume. A tie
// with the best so far goes to a lighter part that the move leaves lighter
// than home. It returns home when no part lowers the volume or wins a tie.
func (r *refiner) volDest(v, home int32) int32 {
	ws, pwgt, vw := r.ws, r.pwgt, int64(r.g.vwgt[v])
	adj, _ := r.g.deg(v)
	e := ws.nextEpoch(len(pwgt))
	cands := ws.touched[:0]
	for _, u := range adj {
		if p := r.assign[u]; p != home && ws.stamp[p] != e {
			ws.stamp[p] = e
			cands = append(cands, p)
		}
	}
	ws.touched = cands[:0]
	if len(cands) == 0 {
		return home
	}
	best, bestAfter := home, r.reachVol(v)
	for _, p := range cands {
		if pwgt[p]+vw > r.maxPart {
			continue
		}
		r.assign[v] = p
		after := r.reachVol(v)
		r.assign[v] = home
		if after < bestAfter || (after == bestAfter && pwgt[p] < pwgt[best] && pwgt[p]+vw < pwgt[home]) {
			best, bestAfter = p, after
		}
	}
	return best
}

// reachVol is the communication volume v and its neighbours contribute: for
// each, its size times the number of distinct remote parts among its own
// neighbours, counted on the epoch-stamped ws.stamp.
func (r *refiner) reachVol(v int32) int64 {
	adj, _ := r.g.deg(v)
	vol := r.localVol(v)
	for _, u := range adj {
		vol += r.localVol(u)
	}
	return vol
}

func (r *refiner) localVol(v int32) int64 {
	ws := r.ws
	adj, _ := r.g.deg(v)
	e := ws.nextEpoch(len(r.pwgt))
	home := r.assign[v]
	cnt := int64(0)
	for _, u := range adj {
		if p := r.assign[u]; p != home && ws.stamp[p] != e {
			ws.stamp[p] = e
			cnt++
		}
	}
	return int64(r.g.vsize[v]) * cnt
}
