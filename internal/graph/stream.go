package graph

import (
	"fmt"
	"math"
	"sync"

	"sfccube/internal/par"
)

// csrChunk is the minimum vertex-chunk size for the parallel CSR passes;
// small enough to balance load, large enough to amortise goroutine startup.
const csrChunk = 4096

// rowBlock is how many rows FromAdjacency asks its producer for per call.
const rowBlock = 128

// FromAdjacency builds a CSR graph with exactly-sized arrays from a
// replayable producer of row blocks: rows(lo, hi, ptrBuf, adjBuf, wtBuf)
// writes rows [lo, hi) into the buffers from length 0 and returns them, row v
// being adj[ptr[v-lo]:ptr[v-lo+1]] in strictly ascending neighbour order with
// positive weights wts parallel (FromMesh's view is one). A degree pass reads
// every row's size off ptr; the fill pass then hands the producer the final
// adjncy/adjwgt segments of each block as its buffers, capacity exactly the
// degree pass's total, so rows land in place. No intermediate edge list is
// ever materialised: peak memory is the final CSR plus O(1) per-worker
// scratch — the property the million-element regime depends on.
//
// Vertices are processed in parallel chunks, so rows must be safe to call
// concurrently on disjoint ranges with disjoint buffers; within a chunk it
// sees ascending blocks, once per pass.
//
// Every returned block is validated per vertex (range, no self-loops,
// strictly ascending order, positive weights, both passes agreeing on the
// degree, rows written into the buffers supplied). Symmetry across rows is
// the caller's contract — Graph.Validate checks it when wanted. Vertex
// weights and sizes are initialised to 1.
func FromAdjacency(n int, rows func(lo, hi int, ptrBuf, adjBuf, wtBuf []int32) (ptr, adj, wts []int32)) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	g := &Graph{
		xadj:  make([]int32, n+1),
		vwgt:  make([]int32, n),
		vsize: make([]int32, n),
	}
	for i := range g.vwgt {
		g.vwgt[i] = 1
		g.vsize[i] = 1
	}

	// Error aggregation: keep the error of the lowest vertex so failures are
	// deterministic regardless of chunk scheduling.
	var mu sync.Mutex
	var firstErr error
	firstErrV := n + 1
	record := func(v int, err error) {
		mu.Lock()
		if v < firstErrV {
			firstErrV, firstErr = v, err
		}
		mu.Unlock()
	}
	// Pass 1: exact row degrees into xadj[v+1], read off the block's row
	// pointers. The rows themselves go to per-chunk scratch; a buffer the
	// producer had to grow serves the next block.
	par.ForChunks(n, csrChunk, func(lo, hi int) {
		ptr, adj, wts := make([]int32, 0, rowBlock+1), make([]int32, 0, 8*rowBlock), make([]int32, 0, 8*rowBlock)
		for ; lo < hi; lo += rowBlock {
			bhi := min(lo+rowBlock, hi)
			ptr, adj, wts = rows(lo, bhi, ptr, adj, wts)
			if len(ptr) != bhi-lo+1 {
				record(lo, fmt.Errorf("graph: %d row pointers for rows [%d,%d)", len(ptr), lo, bhi))
				return
			}
			for v := lo; v < bhi; v++ {
				if g.xadj[v+1] = ptr[v-lo+1] - ptr[v-lo]; g.xadj[v+1] < 0 {
					record(v, fmt.Errorf("graph: row pointer of %d not monotone", v))
					return
				}
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	var total int64
	for v := 0; v < n; v++ {
		total += int64(g.xadj[v+1])
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("graph: adjacency exceeds int32 index space at vertex %d", v)
		}
		g.xadj[v+1] = int32(total)
	}
	g.adjncy = make([]int32, total)
	g.adjwgt = make([]int32, total)

	// Pass 2: the producer writes each block's rows into their final place
	// (fill), which validates them and names the offending vertex on failure.
	fill := func(lo, hi int, ptrBuf []int32) (int, error) {
		x0, x1 := g.xadj[lo], g.xadj[hi]
		ptr, adj, wts := rows(lo, hi, ptrBuf, g.adjncy[x0:x0:x1], g.adjwgt[x0:x0:x1])
		if len(ptr) != hi-lo+1 || ptr[0] != 0 {
			return lo, fmt.Errorf("graph: bad row pointers for rows [%d,%d)", lo, hi)
		}
		for v := lo; v < hi; v++ {
			if want := g.xadj[v+1] - x0; ptr[v-lo+1] > want {
				return v, fmt.Errorf("graph: vertex %d emitted more neighbours than in the degree pass", v)
			} else if ptr[v-lo+1] < want {
				return v, fmt.Errorf("graph: vertex %d emitted fewer neighbours than in the degree pass", v)
			}
		}
		if int32(len(adj)) != x1-x0 || len(wts) != len(adj) ||
			(x1 > x0 && (&adj[0] != &g.adjncy[x0] || &wts[0] != &g.adjwgt[x0])) {
			return lo, fmt.Errorf("graph: rows [%d,%d) were not written into the supplied buffers", lo, hi)
		}
		for v := lo; v < hi; v++ {
			last := int32(-1)
			for x := g.xadj[v]; x < g.xadj[v+1]; x++ {
				u, w := g.adjncy[x], g.adjwgt[x]
				switch {
				case u < 0 || int(u) >= n:
					return v, fmt.Errorf("graph: vertex %d emitted out-of-range neighbour %d", v, u)
				case int(u) == v:
					return v, fmt.Errorf("graph: self-loop on vertex %d", v)
				case u <= last:
					return v, fmt.Errorf("graph: adjacency of %d not emitted in strictly ascending order", v)
				case w <= 0:
					return v, fmt.Errorf("graph: non-positive weight %d on edge (%d,%d)", w, v, u)
				}
				last = u
			}
		}
		return 0, nil
	}
	par.ForChunks(n, csrChunk, func(lo, hi int) {
		ptrBuf := make([]int32, 0, rowBlock+1)
		for ; lo < hi; lo += rowBlock {
			if v, err := fill(lo, min(lo+rowBlock, hi), ptrBuf); err != nil {
				record(v, err)
				return
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}
