package metis

import (
	"fmt"
	"sync"

	"sfccube/internal/graph"
	"sfccube/internal/prng"
	"sfccube/internal/weights"
)

// workspace bundles the reusable memory of one partitioning goroutine: the
// scratch every phase re-initialises before reading (gain tables, matchings,
// permutation buffers, part-weight and connectivity scratch, side buffers),
// grown to the finest graph's size once and reused across levels, init trials
// and refinement passes, and the operand stack the recursion itself runs on.
//
// Every operand the multilevel recursion creates has stack lifetime: a child
// subgraph and its id list live as long as its subtree (rbCtx.recurse), a
// coarse level and its cmap as long as the V-cycle (bisect, kwayPartition).
// They are bump-allocated from one []int32 arena (alloc) beside a stack of
// graph headers (graph), and popped together (mark/release). The finest level
// is not among them: it is the caller's graph (fromGraph) or a level0 block
// (PartitionView), pooled apart because it lives as long as the whole call
// and a doubling arena would keep up to twice its size. The rule: only
// the frame that took a mark releases it, after every frame it called has
// returned, and it hands nothing allocated above the mark to its caller.
// A subtree fanned out to another goroutine breaks "has returned", so its
// parent extracts the child straight into the child goroutine's own workspace:
// that goroutine reads its own arena, the shared rbCtx.assign and nothing
// else, which is also why runRB may put the root workspace back before
// wg.Wait() — no fanned-out frame can reach it. Workspaces are pooled; one
// that comes back with a live arena is a bug and panics.
//
// Nothing here is ever read before it is written by its current user, so a
// workspace's history can never influence results — this is what keeps pooled
// workspaces compatible with bit-reproducible partitions.
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

	// --- operand stack ---
	arena  []int32       // current chunk; [0, top) is live
	top    int           // bump pointer
	graphs []*wgraph     // graph headers
	ngraph int           // graphs[:ngraph] are live
	levels []coarseLevel // coarsen's hierarchy, one V-cycle at a time
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func getWS() *workspace { return wsPool.Get().(*workspace) }

func putWS(w *workspace) {
	if w.top != 0 || w.ngraph != 0 {
		panic("metis: workspace returned to the pool with a live arena")
	}
	wsPool.Put(w)
}

// poisonReleased makes release overwrite what it pops with -1, so a frame
// that reads popped memory fails loudly. Set by the package's tests only.
var poisonReleased bool

// level0 holds the finest level of a PartitionView call in one block, laid out
// xadj | adjncy | adjwgt | vwgt | vsize, and is pooled apart from the
// workspaces: one block per call in flight, reused by the next call it fits.
// A block too small for a level is replaced by one of exactly its size. The
// multilevel phases only read the finest level (see fromGraph), so nothing
// but stream writes the block.
type level0 struct {
	buf []int32
	top int // stream's bump pointer into buf
	g   wgraph
}

var levelPool = sync.Pool{New: func() any { return new(level0) }}

func (lv *level0) put() {
	if poisonReleased {
		for i := range lv.buf {
			lv.buf[i] = -1
		}
	}
	levelPool.Put(lv)
}

// stream writes the view's CSR, the vertex weights w (nil means 1 each) and
// unit vertex sizes into the block and returns them as a working graph. A
// weight outside [0, MaxInt32] fails with weights.Int32's error.
func (lv *level0) stream(view *graph.MeshView, w []int64) (*wgraph, error) {
	n := view.NumVertices()
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("metis: %d vertex weights for %d vertices", len(w), n)
	}
	lv.top = 0
	// carve takes StreamCSR's two arrays off the block and keeps 2n behind
	// them for the weights and sizes; the replacement of a short block keeps
	// the xadj already carved (complete before the second call).
	carve := func(k int) []int32 {
		if need := lv.top + k + 2*n; need > len(lv.buf) {
			lv.buf = append(make([]int32, 0, need), lv.buf[:lv.top]...)[:need]
		}
		s := lv.buf[lv.top : lv.top+k : lv.top+k]
		lv.top += k
		return s
	}
	_, adj, ewgt, err := view.StreamCSR(carve)
	if err != nil {
		return nil, err
	}
	t := lv.top
	vwgt, vsize := lv.buf[t:t+n:t+n], lv.buf[t+n:t+2*n:t+2*n]
	for v := range vsize {
		vsize[v] = 1
	}
	if w == nil {
		copy(vwgt, vsize)
	} else if err := weights.Int32Into(vwgt, w); err != nil {
		return nil, err
	}
	lv.g = wgraph{xadj: lv.buf[: n+1 : n+1], adj: adj, ewgt: ewgt, vwgt: vwgt, vsize: vsize}
	return &lv.g, nil
}

// wsMark is a position of the operand stack.
type wsMark struct{ top, ngraph int }

func (ws *workspace) mark() wsMark { return wsMark{ws.top, ws.ngraph} }

// release pops everything allocated since m.
func (ws *workspace) release(m wsMark) {
	if poisonReleased {
		for i := m.top; i < ws.top; i++ {
			ws.arena[i] = -1
		}
	}
	ws.top, ws.ngraph = m.top, m.ngraph
}

// alloc pushes n int32s, contents unspecified. A full chunk is replaced, not
// copied: slices handed out earlier keep the old one alive, and positions
// (hence marks) mean the same in the new one.
func (ws *workspace) alloc(n int) []int32 {
	if ws.top+n > len(ws.arena) {
		ws.arena = make([]int32, max(2*len(ws.arena), ws.top+n))
	}
	s := ws.arena[ws.top : ws.top+n : ws.top+n]
	ws.top += n
	return s
}

// graph pushes a zeroed graph header.
func (ws *workspace) graph() *wgraph {
	if ws.ngraph == len(ws.graphs) {
		ws.graphs = append(ws.graphs, new(wgraph))
	}
	g := ws.graphs[ws.ngraph]
	ws.ngraph++
	*g = wgraph{}
	return g
}

// grow resizes the scratch buffer *p to n, reallocating only when capacity
// is insufficient, and returns it. Contents are unspecified.
func grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return *p
}

// side returns a 2-way side buffer of length n (contents unspecified): the
// tightest free one that fits, else a new one in place of a free one that
// did not. Release with putSide.
func (ws *workspace) side(n int) []int8 {
	free := ws.sideFree
	last, fit := len(free)-1, -1
	for i, s := range free {
		if cap(s) >= n && (fit < 0 || cap(s) < cap(free[fit])) {
			fit = i
		}
	}
	if last >= 0 {
		ws.sideFree = free[:last]
	}
	if fit < 0 {
		return make([]int8, n)
	}
	s := free[fit]
	free[fit] = free[last]
	return s[:n]
}

func (ws *workspace) putSide(s []int8) {
	ws.sideFree = append(ws.sideFree, s)
}

// nextEpoch advances and returns the stamp epoch, guaranteeing the stamp
// array (indexed by part, at least nparts long) is usable: entries whose
// stamp differs from the returned epoch count as clear.
func (ws *workspace) nextEpoch(nparts int) int64 {
	if len(ws.stamp) < nparts {
		grow(&ws.stamp, nparts)
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
