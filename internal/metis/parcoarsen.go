package metis

import "sfccube/internal/par"

// Parallel coarsening for the million-element regime. Matching fans out
// over fixed-size vertex blocks (heavyEdgeMatch) the same way recursive
// bisection fans out subtrees: each block gets its own splitmix64 stream
// derived from a per level seed, so the matching is a pure function of
// (graph, seed) and byte-identical at any GOMAXPROCS. Contraction fans out
// over coarse-id ranges; its output is fully determined by cmap and the
// member order, so chunking (which does vary with GOMAXPROCS) cannot change
// a byte.
const (
	// parCoarsenMinVertices gates the parallel matching and contraction
	// paths. The threshold is chosen above every golden/differential test
	// regime (Ne=48 has 13824 elements) so the small-regime RNG streams and
	// their recorded metrics stay bit-identical, while Ne>=96 (55296
	// elements) and the whole million-element regime take the blocked path.
	parCoarsenMinVertices = 1 << 15
	// matchBlockSize is the fixed vertex-block width of blocked matching.
	// It must NOT depend on GOMAXPROCS: the block decomposition determines
	// the matching content, so it has to be a pure function of the graph.
	matchBlockSize = 1 << 13
	// parContractChunk is the minimum coarse-vertex chunk per contraction
	// worker; each worker carries O(nc) stamp scratch, so chunks are kept
	// coarse to bound the number of scratch arrays.
	parContractChunk = 1 << 14
)

// contractParallel builds the coarse graph induced by cmap with exact-size
// CSR arrays: a counting pass sizes every coarse row, a fill pass writes it
// in place. Both passes run over coarse-id chunks concurrently with private
// stamp scratch; every row's content is a pure function of (g, cmap, member
// order), so the result is bitwise equal to the sequential contraction
// regardless of chunking.
func contractParallel(g *wgraph, cmap []int32, nc int, ws *workspace) *wgraph {
	coarse, morder, mstart := coarseVertices(g, cmap, nc, ws)
	// Pass 1: exact row degrees.
	par.ForChunks(nc, parContractChunk, func(clo, chi int) {
		w := getWS() // a chunk's stamps are its own goroutine's scratch
		defer putWS(w)
		stamp := w.stamps(nc)
		for c := int32(clo); c < int32(chi); c++ {
			cnt := int32(0)
			for _, v := range morder[mstart[c]:mstart[c+1]] {
				a, _ := g.deg(v)
				for _, u := range a {
					cu := cmap[u]
					if cu != c && stamp[cu] != c {
						stamp[cu] = c
						cnt++
					}
				}
			}
			coarse.xadj[c+1] = cnt
		}
	})
	for c := 0; c < nc; c++ {
		coarse.xadj[c+1] += coarse.xadj[c]
	}
	m := coarse.xadj[nc]
	coarse.adj, coarse.ewgt = ws.alloc(int(m)), ws.alloc(int(m))
	// Pass 2: fill rows in place, accumulating parallel fine edges.
	par.ForChunks(nc, parContractChunk, func(clo, chi int) {
		w := getWS()
		defer putWS(w)
		stamp, rowPos := w.stamps(nc), grow(&w.pos, nc)
		for c := int32(clo); c < int32(chi); c++ {
			p := coarse.xadj[c]
			for _, v := range morder[mstart[c]:mstart[c+1]] {
				a, w := g.deg(v)
				for i, u := range a {
					cu := cmap[u]
					if cu == c {
						continue // internal edge
					}
					if stamp[cu] != c {
						stamp[cu] = c
						rowPos[cu] = p
						coarse.adj[p] = cu
						coarse.ewgt[p] = w[i]
						p++
					} else {
						coarse.ewgt[rowPos[cu]] += w[i]
					}
				}
			}
		}
	})
	return coarse
}
