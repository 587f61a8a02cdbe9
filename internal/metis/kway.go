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

	refine := kwayRefineCut
	if opt.Method == KWayVol {
		refine = kwayRefineVol
	}
	var maxVW int64 = 1
	for _, w := range g.vwgt {
		if int64(w) > maxVW {
			maxVW = int64(w)
		}
	}
	maxPart := maxPartWeight(g.totalVWgt(), nparts, imbalance, maxVW)
	refine(coarsest, assign, nparts, maxPart, refineIters, rng, ws, stop)

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
		refine(lv.fine, assign, nparts, maxPart, refineIters, rng, ws, stop)
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

// forceBalance evicts vertices from parts whose weight exceeds maxPart,
// sending each evicted vertex to the lightest adjacent part with room (or
// the globally lightest part when no adjacent part has room), choosing the
// eviction with the smallest cut penalty. It runs until every part is within
// the bound or no further move is possible.
func forceBalance(g *wgraph, assign []int32, nparts int, maxPart int64, pwgt []int64, ws *workspace) {
	n := g.n()
	conn := ws.connFor(nparts)
	touched := ws.touched[:0]
	defer func() { ws.touched = touched[:0] }()
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

// connFor returns the per-part connectivity scratch, zeroed and sized to
// nparts. Users restore the all-zero state through their touched lists, so
// the zero fill here is the only O(nparts) cost per refinement entry.
func (ws *workspace) connFor(nparts int) []int64 {
	grow(&ws.conn, nparts)
	for i := range ws.conn {
		ws.conn[i] = 0
	}
	return ws.conn
}

// boundaryQueue fills dst with every boundary vertex of the current
// assignment (in vertex order; the caller shuffles), marks them in ws.inQ
// (reset first), and returns the queue.
func boundaryQueue(g *wgraph, assign []int32, ws *workspace, dst []int32) []int32 {
	n := g.n()
	queue := dst[:0]
	inQ := grow(&ws.inQ, n)
	for i := range inQ {
		inQ[i] = false
	}
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

// kwayRefineCut runs greedy K-way refinement minimising the weighted
// edgecut (the classical Karypis-Kumar scheme), boundary-driven: a queue
// holds the current boundary vertices in random order; when a vertex moves,
// only its neighbourhood — the exact set whose gains changed — is
// re-enqueued for the next pass. Per-vertex connectivity is accumulated in
// an O(nparts) scratch array reset through a touched list, so one pass costs
// O(boundary + moved·deg) instead of the former full-graph rescan.
func kwayRefineCut(g *wgraph, assign []int32, nparts int, maxPart int64, iters int, rng *prng.Stream, ws *workspace, stop *stopper) {
	n := g.n()
	pwgt := grow(&ws.pwgt, nparts)
	for p := range pwgt {
		pwgt[p] = 0
	}
	for v := 0; v < n; v++ {
		pwgt[assign[v]] += int64(g.vwgt[v])
	}
	forceBalance(g, assign, nparts, maxPart, pwgt, ws)
	conn := ws.connFor(nparts)
	touched := ws.touched[:0]
	queue := boundaryQueue(g, assign, ws, ws.queue)
	next := ws.queue2[:0]
	inQ := ws.inQ
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
			adj, wgt := g.deg(v)
			if len(adj) == 0 {
				continue
			}
			home := assign[v]
			if pwgt[home] == int64(g.vwgt[v]) {
				continue // never empty a part
			}
			boundary := false
			touched = touched[:0]
			for i, u := range adj {
				p := assign[u]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += int64(wgt[i])
				if p != home {
					boundary = true
				}
			}
			if boundary {
				// Find the best destination part.
				best := home
				bestGain := int64(0)
				for _, p := range touched {
					if p == home {
						continue
					}
					gain := conn[p] - conn[home]
					if gain <= 0 {
						continue
					}
					if pwgt[p]+int64(g.vwgt[v]) > maxPart {
						continue
					}
					if gain > bestGain || (gain == bestGain && pwgt[p] < pwgt[best]) {
						best, bestGain = p, gain
					}
				}
				// Also allow zero-gain moves that improve balance.
				if best == home {
					for _, p := range touched {
						if p == home || conn[p] != conn[home] {
							continue
						}
						if pwgt[p]+int64(g.vwgt[v]) < pwgt[home] {
							best = p
							break
						}
					}
				}
				if best != home {
					pwgt[home] -= int64(g.vwgt[v])
					pwgt[best] += int64(g.vwgt[v])
					assign[v] = best
					moved++
					// Re-enqueue the neighbourhood whose gains changed.
					// Vertices still pending in the current pass keep their
					// slot (they will be evaluated against the new state).
					for _, u := range adj {
						if !inQ[u] {
							inQ[u] = true
							next = append(next, u)
						}
					}
					if !inQ[v] {
						inQ[v] = true
						next = append(next, v)
					}
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
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
	ws.touched = touched[:0]
}

// kwayRefineVol runs greedy K-way refinement minimising the METIS-style
// total communication volume: sum over vertices of vsize(v) times the number
// of distinct remote parts among v's neighbours. Moving a vertex changes its
// own contribution and that of its neighbours; the gain is evaluated exactly
// on the local neighbourhood. Distinct-part counting uses the epoch-stamped
// ws.stamp scratch (the stamp trick of coarsen.go) instead of per-vertex
// maps, and the visit order is boundary-driven like kwayRefineCut — with a
// two-hop re-enqueue, because a move changes the exact volume evaluation of
// everything within distance two.
func kwayRefineVol(g *wgraph, assign []int32, nparts int, maxPart int64, iters int, rng *prng.Stream, ws *workspace, stop *stopper) {
	n := g.n()
	pwgt := grow(&ws.pwgt, nparts)
	for p := range pwgt {
		pwgt[p] = 0
	}
	for v := 0; v < n; v++ {
		pwgt[assign[v]] += int64(g.vwgt[v])
	}
	forceBalance(g, assign, nparts, maxPart, pwgt, ws)

	// localVol returns the communication volume contributed by vertex v
	// under the current assignment, counting distinct remote parts with the
	// epoch-stamped scratch.
	localVol := func(v int32) int64 {
		adj, _ := g.deg(v)
		e := ws.nextEpoch(nparts)
		home := assign[v]
		cnt := int64(0)
		for _, u := range adj {
			p := assign[u]
			if p != home && ws.stamp[p] != e {
				ws.stamp[p] = e
				cnt++
			}
		}
		return int64(g.vsize[v]) * cnt
	}
	// neighbourhoodVol is the volume of v plus all its neighbours: the
	// exact set whose contributions can change when v moves.
	neighbourhoodVol := func(v int32) int64 {
		vol := localVol(v)
		adj, _ := g.deg(v)
		for _, u := range adj {
			vol += localVol(u)
		}
		return vol
	}

	queue := boundaryQueue(g, assign, ws, ws.queue)
	next := ws.queue2[:0]
	inQ := ws.inQ
	cands := ws.touched[:0]
	// See kwayRefineCut: full marks a whole-boundary queue; incremental
	// convergence is verified against the full boundary before stopping.
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
			adj, _ := g.deg(v)
			home := assign[v]
			if pwgt[home] == int64(g.vwgt[v]) {
				continue // never empty a part
			}
			// Candidate destinations: distinct parts of neighbours, in
			// adjacency order (deterministic, unlike map iteration).
			e := ws.nextEpoch(nparts)
			cands = cands[:0]
			for _, u := range adj {
				p := assign[u]
				if p != home && ws.stamp[p] != e {
					ws.stamp[p] = e
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				continue
			}
			before := neighbourhoodVol(v)
			best := home
			bestAfter := before
			bestPw := pwgt[home]
			for _, p := range cands {
				if pwgt[p]+int64(g.vwgt[v]) > maxPart {
					continue
				}
				assign[v] = p
				after := neighbourhoodVol(v)
				assign[v] = home
				if after < bestAfter || (after == bestAfter && p != home && pwgt[p] < bestPw && pwgt[p]+int64(g.vwgt[v]) < pwgt[home]) {
					best, bestAfter, bestPw = p, after, pwgt[p]
				}
			}
			if best != home {
				pwgt[home] -= int64(g.vwgt[v])
				pwgt[best] += int64(g.vwgt[v])
				assign[v] = best
				moved++
				// Two-hop re-enqueue: the move changes the volume
				// evaluation of v, its neighbours, and their neighbours.
				if !inQ[v] {
					inQ[v] = true
					next = append(next, v)
				}
				for _, u := range adj {
					if !inQ[u] {
						inQ[u] = true
						next = append(next, u)
					}
					uadj, _ := g.deg(u)
					for _, w := range uadj {
						if !inQ[w] {
							inQ[w] = true
							next = append(next, w)
						}
					}
				}
			}
		}
		stop.obs().observeKWayPass(moved)
		if moved == 0 {
			if full {
				break // converged on the whole boundary
			}
			queue = boundaryQueue(g, assign, ws, queue)
			full = true
			continue
		}
		queue, next = next, queue
		full = false
	}
	ws.queue, ws.queue2 = queue[:0], next[:0]
	ws.touched = cands[:0]
}
