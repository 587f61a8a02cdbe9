package metis

import (
	"sync"

	"sfccube/internal/prng"
)

// workspace bundles the reusable scratch memory of one partitioning
// goroutine. The multilevel V-cycle used to allocate its working arrays at
// every level (gain tables, matchings, permutation buffers, part-weight and
// connectivity scratch, projection side arrays); a workspace is instead
// fetched once per goroutine, its buffers grown to the finest graph's size,
// and reused across every level, init trial and refinement pass. Workspaces
// are pooled so the parallel recursive-bisection subtrees (see recurseOn)
// each grab an independent one.
//
// Every buffer is pure scratch: users must fully (re)initialise what they
// read, so a workspace's history can never influence results — this is what
// keeps pooled workspaces compatible with bit-reproducible partitions.
type workspace struct {
	// --- FM (2-way) refinement ---
	gain   []int64     // per-vertex gain table
	moves  []int32     // move log of the current pass
	skip   []int32     // balance-filtered vertices parked during selection
	locked []bool      // vertex already moved this pass
	bkt    gainBuckets // gain-bucket move-selection structure

	// --- greedy graph growing ---
	inFrontier []bool
	frontier   []int32

	// --- recursive bisection ---
	newID []int32 // subgraph: parent -> sub vertex id translation scratch

	// --- coarsening ---
	match  []int32 // heavy-edge matching scratch
	perm   []int32 // reused, re-shuffled index buffer (replaces rng.Perm)
	pos    []int32 // contract: position of coarse neighbour in current row
	cstamp []int32 // contract: lazy row stamp, indexed by coarse vertex
	morder []int32 // contract: fine vertices ordered by coarse owner
	mstart []int32 // contract: row starts into morder

	// --- K-way refinement ---
	pwgt    []int64 // part weights
	conn    []int64 // per-part connectivity of one vertex (stamp-cleared)
	touched []int32 // parts touched by the current vertex
	queue   []int32 // boundary queue of the current pass
	queue2  []int32 // boundary queue being built for the next pass
	inQ     []bool  // vertex is in queue or queue2
	stamp   []int64 // epoch stamps, indexed by part (vol refinement)
	epoch   int64   // current epoch for stamp

	// --- projection side buffers (2-way) ---
	sideFree [][]int8
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func getWS() *workspace  { return wsPool.Get().(*workspace) }
func putWS(w *workspace) { wsPool.Put(w) }

// growI32 returns s resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// side returns a 2-way side buffer of length n from the free list (contents
// unspecified), growing it when needed. Release with putSide.
func (ws *workspace) side(n int) []int8 {
	if k := len(ws.sideFree); k > 0 {
		s := ws.sideFree[k-1]
		ws.sideFree = ws.sideFree[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int8, n)
}

func (ws *workspace) putSide(s []int8) {
	ws.sideFree = append(ws.sideFree, s)
}

// nextEpoch advances and returns the stamp epoch, guaranteeing the stamp
// array (indexed by part, at least nparts long) is usable: entries whose
// stamp differs from the returned epoch count as clear.
func (ws *workspace) nextEpoch(nparts int) int64 {
	if len(ws.stamp) < nparts {
		ws.stamp = growI64(ws.stamp, nparts)
		for i := range ws.stamp {
			ws.stamp[i] = 0
		}
		ws.epoch = 0
	}
	ws.epoch++
	return ws.epoch
}

// childSeed derives the RNG seed of the child-th subtree of a bisection node
// from the node's own seed. The derivation depends only on the position of
// the subtree in the bisection tree (never on scheduling), which makes the
// parallel recursive bisection bit-identical for any GOMAXPROCS.
func childSeed(seed uint64, child uint64) uint64 {
	return prng.Mix(seed ^ (0xa0761d6478bd642f * (child + 1)))
}
