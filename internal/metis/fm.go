package metis

import "math"

// fmRefine improves a 2-way partition with Fiduccia-Mattheyses passes:
// vertices are moved one at a time, each at most once per pass, and the pass
// is rolled back to the best prefix seen. A prefix is scored first by
// balance class (side 0's weight within half a vertex of the exact target;
// within one vertex; worse) and then by cumulative cut gain, so the
// refinement both restores balance after projection from a coarser level and
// reduces the cut, in that order of priority.
//
// Move selection uses the classic gain-bucket structure (gainBuckets): a
// doubly-linked bucket list per side indexed by gain, with lazy balance
// filtering at selection time. Each pass costs O(n + E + gain range) instead
// of the former O(n) scan per move (O(n^2) per pass), which is what makes
// recursive bisection viable at production mesh sizes.
//
// The returned value is the weighted edgecut of the refined bisection —
// computed as a byproduct of the last pass's gain seeding, so callers that
// rank bisections (initialBisection) need no separate O(E) cut scan.
func fmRefine(g *wgraph, side []int8, target, band float64, maxIters int, ws *workspace, stop *stopper) int64 {
	n := g.n()
	if n < 2 {
		return 0
	}
	maxVW, minVW, maxDeg := g.stats()
	var w0 int64
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			w0 += int64(g.vwgt[v])
		}
	}
	imb := func(w int64) float64 { return math.Abs(float64(w) - target) }
	// class 0: inside the balance band (at least half the largest vertex,
	// i.e. floor/ceil of the target for unit weights, widened by the
	// caller's UBfactor band); class 1: within one more vertex; class 2:
	// worse. Within class 0 the refinement is free to pick whatever
	// balance point minimises the cut -- the METIS UBfactor semantics.
	band0 := float64(maxVW) / 2
	if band > band0 {
		band0 = band
	}
	classOf := func(w int64) int {
		d := imb(w)
		switch {
		case d <= band0:
			return 0
		case d <= band0+float64(maxVW):
			return 1
		default:
			return 2
		}
	}
	// blocked reports whether moving weight w off side s is forbidden: the
	// resulting imbalance would both exceed the band-plus-one-vertex window
	// and be no better than the current one.
	newW0 := func(s int8, w int64) int64 {
		if s == 0 {
			return w0 - w
		}
		return w0 + w
	}
	blocked := func(s int8, w int64) bool {
		nw := newW0(s, w)
		return imb(nw) > band0+float64(maxVW) && imb(nw) >= imb(w0)
	}

	gain := grow(&ws.gain, n)
	moves := ws.moves[:0]
	locked := grow(&ws.locked, n)
	bkt := &ws.bkt
	bkt.reset(n, maxDeg)

	// selectMove picks the unlocked vertex with the highest gain whose move
	// passes the balance filter, preferring — on gain ties — the side whose
	// departure improves balance. Vertices that fail the per-vertex filter
	// are parked and reinserted after a winner is found (lazy filtering);
	// a whole side is skipped outright when even its lightest conceivable
	// vertex would fail (the filter is monotone in vertex weight once the
	// minimum-weight move fails, see below).
	selectMove := func() (int32, int64) {
		// Monotone whole-side rejection: if a move of weight minVW off side
		// s is blocked, then (a) the resulting imbalance was already no
		// better than the current one, which for any heavier vertex moves
		// the weight further in the same worsening direction, and (b) it
		// already exceeded the absolute window, which heavier moves exceed
		// even more. Hence every vertex of the side is blocked.
		var allow [2]bool
		allow[0] = !blocked(0, minVW)
		allow[1] = !blocked(1, minVW)
		skip := ws.skip[:0]
		chosen, chosenGain := int32(-1), int64(0)
		for {
			v0, g0 := int32(-1), int64(0)
			v1, g1 := int32(-1), int64(0)
			if allow[0] {
				v0, g0 = bkt.top(0)
			}
			if allow[1] {
				v1, g1 = bkt.top(1)
			}
			var v int32
			var vg int64
			var s int
			switch {
			case v0 < 0 && v1 < 0:
				v = -1
			case v1 < 0 || (v0 >= 0 && g0 > g1):
				v, vg, s = v0, g0, 0
			case v0 < 0 || g1 > g0:
				v, vg, s = v1, g1, 1
			default:
				// Gain tie: prefer the side whose departure improves
				// balance (side 0 when it is heavy, side 1 otherwise).
				if float64(w0) >= target {
					v, vg, s = v0, g0, 0
				} else {
					v, vg, s = v1, g1, 1
				}
			}
			if v < 0 {
				break
			}
			if !blocked(int8(s), int64(g.vwgt[v])) {
				chosen, chosenGain = v, vg
				bkt.remove(s, v)
				break
			}
			// Heavy vertex individually blocked: park it and keep scanning.
			bkt.remove(s, v)
			skip = append(skip, v)
		}
		for _, u := range skip {
			bkt.insert(int(side[u]), u, gain[u])
		}
		ws.skip = skip[:0]
		return chosen, chosenGain
	}

	// limit bounds how far a pass may run past its best prefix before giving
	// up — METIS's early-exit rule. Without it every pass moves all n
	// vertices and rolls most of them back; with it a pass ends a bounded
	// number of speculative moves after the last improvement, which is where
	// virtually all of the useful hill-climbing happens. The budget scales
	// with n so the tiny leaf graphs of a deep recursive-bisection tree do
	// not replay their entire vertex set every pass.
	limit := n / 8
	if limit < 4 {
		limit = 4
	}
	if limit > 100 {
		limit = 100
	}

	var cut int64
	for iter := 0; iter < maxIters; iter++ {
		if stop.stopped() {
			break // deadline poll per refinement pass
		}
		// Seed the buckets with the boundary only (METIS's boundary FM):
		// interior vertices can never be the best cut move, and inserting all
		// n of them made every pass pay O(n) bucket traffic for vertices that
		// are immediately rolled back. Gains are still computed for every
		// vertex — an interior vertex adjacent to a move becomes boundary
		// mid-pass and is inserted then, with its incrementally maintained
		// gain.
		var extSum int64
		for v := int32(0); v < int32(n); v++ {
			locked[v] = false
			adj, wgt := g.deg(v)
			var ext, internal int64
			for i, u := range adj {
				if side[u] == side[v] {
					internal += int64(wgt[i])
				} else {
					ext += int64(wgt[i])
				}
			}
			gain[v] = ext - internal
			if ext > 0 {
				bkt.insert(int(side[v]), v, gain[v])
			}
			extSum += ext
		}
		cut = extSum / 2 // each cut edge contributes ext at both endpoints
		moves = moves[:0]
		var cumGain int64
		// Score of the initial (empty-prefix) state.
		bestClass, bestGain, bestImb := classOf(w0), int64(0), imb(w0)
		bestPrefix := 0
		improved := false

		for step := 0; step < n; step++ {
			best, bg := selectMove()
			if best < 0 {
				break
			}
			locked[best] = true
			if side[best] == 0 {
				w0 -= int64(g.vwgt[best])
				side[best] = 1
			} else {
				w0 += int64(g.vwgt[best])
				side[best] = 0
			}
			moves = append(moves, best)
			cumGain += bg
			cls, ib := classOf(w0), imb(w0)
			if cls < bestClass ||
				(cls == bestClass && cumGain > bestGain) ||
				(cls == bestClass && cumGain == bestGain && ib < bestImb) {
				bestClass, bestGain, bestImb = cls, cumGain, ib
				bestPrefix = len(moves)
				improved = true
			}
			if len(moves)-bestPrefix > limit {
				break // early exit: no improvement within the move budget
			}
			// Update unlocked neighbour gains; insert neighbours that just
			// became boundary (they acquired an external edge to best).
			adj, wgt := g.deg(best)
			for i, u := range adj {
				if locked[u] {
					continue // already moved this pass
				}
				if side[u] == side[best] {
					gain[u] -= 2 * int64(wgt[i])
				} else {
					gain[u] += 2 * int64(wgt[i])
				}
				if bkt.where[u] >= 0 {
					bkt.update(int(side[u]), u, gain[u])
				} else if side[u] != side[best] {
					bkt.insert(int(side[u]), u, gain[u])
				}
			}
		}
		// Restore the drain invariant before mutating side in the rollback.
		bkt.drain(side)
		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			v := moves[i]
			if side[v] == 0 {
				w0 -= int64(g.vwgt[v])
				side[v] = 1
			} else {
				w0 += int64(g.vwgt[v])
				side[v] = 0
			}
		}
		cut -= bestGain // the kept prefix reduced the pass-start cut by bestGain
		stop.obs().observeFMPass(bestGain)
		if !improved {
			break
		}
	}
	ws.moves = moves[:0]
	return cut
}
