package metis

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sfccube/internal/graph"
	"sfccube/internal/par"
	"sfccube/internal/prng"
)

// The differential references below are the two K-way refinement loops and
// the two heavy-edge matchers the package ran before refinement became one
// loop (kwayRefine) and matching one block body (matchBlock), kept verbatim so
// the tests can hold the replacements to the same choices, move for move and
// draw for draw. Only the eviction prologue both loops opened with is shared
// with the package (refForceBalance).

// refForceBalance zeroes the connectivity scratch, runs forceBalance over
// pwgt and returns the scratch, zero again.
func refForceBalance(g *wgraph, assign []int32, nparts int, maxPart int64, pwgt []int64, ws *workspace) []int64 {
	conn := grow(&ws.conn, nparts)
	clear(conn)
	(&refiner{g: g, assign: assign, pwgt: pwgt, conn: conn, maxPart: maxPart, ws: ws}).forceBalance()
	return conn
}

func refKwayRefineCut(g *wgraph, assign []int32, nparts int, maxPart int64, iters int, rng *prng.Stream, ws *workspace, stop *stopper) {
	n := g.n()
	pwgt := grow(&ws.pwgt, nparts)
	for p := range pwgt {
		pwgt[p] = 0
	}
	for v := 0; v < n; v++ {
		pwgt[assign[v]] += int64(g.vwgt[v])
	}
	conn := refForceBalance(g, assign, nparts, maxPart, pwgt, ws)
	touched := ws.touched[:0]
	queue := boundaryQueue(g, assign, ws, ws.queue)
	next := ws.queue2[:0]
	inQ := ws.inQ
	full := true

	for iter := 0; iter < iters && len(queue) > 0; iter++ {
		if stop.stopped() {
			break
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
				continue
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
				break
			}
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

func refKwayRefineVol(g *wgraph, assign []int32, nparts int, maxPart int64, iters int, rng *prng.Stream, ws *workspace, stop *stopper) {
	n := g.n()
	pwgt := grow(&ws.pwgt, nparts)
	for p := range pwgt {
		pwgt[p] = 0
	}
	for v := 0; v < n; v++ {
		pwgt[assign[v]] += int64(g.vwgt[v])
	}
	refForceBalance(g, assign, nparts, maxPart, pwgt, ws)

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
	full := true

	for iter := 0; iter < iters && len(queue) > 0; iter++ {
		if stop.stopped() {
			break
		}
		rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
		moved := 0
		next = next[:0]
		for _, v := range queue {
			inQ[v] = false
			adj, _ := g.deg(v)
			home := assign[v]
			if pwgt[home] == int64(g.vwgt[v]) {
				continue
			}
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
				break
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

func refHeavyEdgeMatch(g *wgraph, rng *prng.Stream, ws *workspace) (cmap []int32, nc int) {
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
	return refNumberMatches(match, n, ws)
}

func refHeavyEdgeMatchBlocked(g *wgraph, seed uint64, ws *workspace) (cmap []int32, nc int) {
	n := g.n()
	match := grow(&ws.match, n)
	perm := grow(&ws.perm, n)
	nb := (n + matchBlockSize - 1) / matchBlockSize
	par.ForBlocks(nb, func(b int) {
		lo := b * matchBlockSize
		hi := lo + matchBlockSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			match[i] = -1
			perm[i] = int32(i)
		}
		rng := prng.New(childSeed(seed, uint64(b)))
		blk := perm[lo:hi]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		for _, v := range blk {
			if match[v] >= 0 {
				continue
			}
			adj, wgt := g.deg(v)
			best := int32(-1)
			var bestW int32 = -1
			for i, u := range adj {
				if int(u) >= lo && int(u) < hi && match[u] < 0 && wgt[i] > bestW {
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
	})
	return refNumberMatches(match, n, ws)
}

func refNumberMatches(match []int32, n int, ws *workspace) (cmap []int32, nc int) {
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

// weightedVariant returns gr with random vertex weights in [1, 4] and vertex
// sizes in [1, 3], so the balance bound and the volume objective see more
// than unit weights.
func weightedVariant(gr *graph.Graph, rng *rand.Rand) *graph.Graph {
	n := gr.NumVertices()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for i, u := range gr.Adj(v) {
			if int(u) > v {
				_ = b.AddEdge(v, int(u), gr.AdjWeights(v)[i])
			}
		}
		b.SetVertexWeight(v, int32(rng.Intn(4)+1))
		b.SetVertexSize(v, int32(rng.Intn(3)+1))
	}
	return b.Build()
}

// startAssignment returns one of three K-way refinement starting points:
// uniformly random parts (every vertex boundary), contiguous id ranges with a
// tenth of the vertices flipped (a nearly converged projection), or the
// contiguous ranges crowded into the lower half of the parts (overweight
// parts, so forceBalance evicts and balance-only moves fire).
func startAssignment(n, nparts, kind int, rng *rand.Rand) []int32 {
	a := make([]int32, n)
	for v := range a {
		switch kind {
		case 0:
			a[v] = int32(rng.Intn(nparts))
		case 1:
			a[v] = int32(v * nparts / n)
			if rng.Intn(10) == 0 {
				a[v] = int32(rng.Intn(nparts))
			}
		default:
			a[v] = int32(v * ((nparts + 1) / 2) / n)
		}
	}
	return a
}

// TestKWayRefineMatchesReference holds kwayRefine to the two loops it
// replaced: over mesh and random graphs, unit and random weights, three kinds
// of starting assignment, part counts from 2 to 96, the package's bound and
// the tightest one, and pass budgets of 1, 2 and refineIters, both objectives
// must leave the same assignment and the RNG stream at the same position
// (same passes, same queue lengths) as their reference.
func TestKWayRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*graph.Graph{meshGraph(t, 4), meshGraph(t, 8), gridGraph(9, 7)}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, randomConnectedGraph(40+rng.Intn(200), 10+rng.Intn(300), rng))
	}
	for _, gr := range graphs[:3] {
		graphs = append(graphs, weightedVariant(gr, rng))
	}
	refs := []func(*wgraph, []int32, int, int64, int, *prng.Stream, *workspace, *stopper){refKwayRefineCut, refKwayRefineVol}
	cases := 0
	for gi, gr := range graphs {
		g := fromGraph(gr)
		n := g.n()
		maxVW, _, _ := g.stats()
		for _, nparts := range []int{2, 3, 7, 24, 96} {
			if nparts > n/2 {
				continue
			}
			for kind := 0; kind < 3; kind++ {
				start := startAssignment(n, nparts, kind, rng)
				for _, maxPart := range []int64{
					maxPartWeight(g.totalVWgt(), nparts, imbalance, maxVW),
					(g.totalVWgt() + int64(nparts) - 1) / int64(nparts),
				} {
					for _, iters := range []int{1, 2, refineIters} {
						for vol, ref := range refs {
							seed := rng.Uint64()
							want, got := append([]int32(nil), start...), append([]int32(nil), start...)
							wantR, gotR := prng.New(seed), prng.New(seed)
							ref(g, want, nparts, maxPart, iters, wantR, new(workspace), nil)
							kwayRefine(g, got, nparts, maxPart, vol == 1, iters, gotR, new(workspace), nil)
							what := fmt.Sprintf("graph %d nparts=%d start=%d maxPart=%d iters=%d vol=%v", gi, nparts, kind, maxPart, iters, vol == 1)
							sameAssignment(t, what, got, want)
							if wantR.Uint64() != gotR.Uint64() {
								t.Fatalf("%s: the RNG stream ends at a different position", what)
							}
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d refinements compared", cases)
}

// TestMatchingMatchesReference holds heavyEdgeMatch, one block body on both
// sides of parCoarsenMinVertices, to the sequential and blocked matchers it
// replaced: the same coarse map and count, and the caller's RNG stream at the
// same position, at GOMAXPROCS 1 and 4. Ne=80 (38,400 vertices) ends in a
// partial block.
func TestMatchingMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(7))
	graphs := []*graph.Graph{gridGraph(10, 10), meshGraph(t, 8), randomConnectedGraph(300, 400, rng), meshGraph(t, 80)}
	if !testing.Short() {
		graphs = append(graphs, meshGraph(t, 96))
	}
	for gi, gr := range graphs {
		g := fromGraph(gr)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for seed := uint64(1); seed <= 3; seed++ {
				ws, refWS := new(workspace), new(workspace)
				wr, gotR := prng.New(seed), prng.New(seed)
				var want []int32
				var wantNC int
				if g.n() < parCoarsenMinVertices {
					want, wantNC = refHeavyEdgeMatch(g, wr, refWS)
				} else {
					want, wantNC = refHeavyEdgeMatchBlocked(g, wr.Uint64(), refWS)
				}
				got, nc := heavyEdgeMatch(g, gotR, ws)
				what := fmt.Sprintf("graph %d (n=%d) GOMAXPROCS=%d seed=%d", gi, g.n(), procs, seed)
				if nc != wantNC {
					t.Fatalf("%s: %d coarse vertices, want %d", what, nc, wantNC)
				}
				sameAssignment(t, what, got, want)
				if wr.Uint64() != gotR.Uint64() {
					t.Fatalf("%s: the RNG stream ends at a different position", what)
				}
			}
		}
	}
}
