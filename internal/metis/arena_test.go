package metis

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"sfccube/internal/graph"
	"sfccube/internal/prng"
)

// TestMain turns the poison hook on for every test of the package (and of
// pinned_test.go beside it): release overwrites what it pops with -1, so a
// frame that reads popped memory changes a pinned byte instead of flaking.
// A benchmark run measures the real release.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonReleased = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}

// rbOn runs the bisection tree of g on ws alone (a zero-capacity semaphore
// never fans out) and returns the assignment.
func rbOn(ws *workspace, g *wgraph, nparts int, seed int64, stop *stopper) []int32 {
	c := &rbCtx{assign: make([]int32, g.n()), sem: make(chan struct{}), stop: stop}
	verts := make([]int32, g.n())
	for i := range verts {
		verts[i] = int32(i)
	}
	c.recurse(g, verts, 0, nparts, prng.Mix(uint64(seed)), ws)
	return c.assign
}

func wantAssignment(t *testing.T, gr *graph.Graph, nparts int, opt Options) []int32 {
	t.Helper()
	p, err := Partition(gr, nparts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p.Assignment()
}

func sameAssignment(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d in part %d, want %d", what, v, got[v], want[v])
		}
	}
}

// TestSideBuffersReused: bisect takes its two side buffers once, sized for
// the finest level, so a second bisection of the same graph on the same
// workspace allocates nothing at all — no []int8, no level, no header.
// (side used to drop the buffer it popped whenever the next level was larger.)
func TestSideBuffersReused(t *testing.T) {
	g := fromGraph(meshGraph(t, 48))
	ws := new(workspace)
	tw0 := float64(g.totalVWgt()) / 2
	// AllocsPerRun's warm-up call is the first bisection; the average of the
	// ten after it is truncated, which forgives the runtime the two objects of
	// a collector start and nothing a bisection would allocate every time.
	if n := testing.AllocsPerRun(10, func() {
		ws.putSide(bisect(g, tw0, 0, prng.New(1), ws, nil))
	}); n != 0 {
		t.Errorf("bisect of K=13824 on a warm workspace: %v allocations a run, want 0", n)
	}
	if ws.top != 0 || ws.ngraph != 0 {
		t.Errorf("bisect left the operand stack at top=%d ngraph=%d", ws.top, ws.ngraph)
	}
}

// TestRBAllocsIndependentOfParts is the property the operand stack exists
// for: without fan-out, a recursive bisection on a warm workspace allocates
// the same handful of objects whether the tree has 23 nodes or 191.
func TestRBAllocsIndependentOfParts(t *testing.T) {
	g := fromGraph(meshGraph(t, 8))
	ws := new(workspace)
	var counts [3]float64
	for i, nparts := range []int{24, 96, 192} {
		run := func() { rbOn(ws, g, nparts, 1, nil) }
		run() // the side free list settles within two runs
		counts[i] = testing.AllocsPerRun(5, run)
	}
	// rbOn's own three: the context, the assignment, the id list.
	if counts[0] > 4 || counts[1] != counts[0] || counts[2] != counts[0] {
		t.Errorf("allocations of RB on K=384 into 24/96/192 parts: %v, want one constant <= 4", counts)
	}
}

// pollsCtx is cancelled at its n-th Done call — the stopper polls Done once
// per level, pass and tree node — so a sweep over n cancels a run at every
// kind of poll site in turn.
type pollsCtx struct {
	context.Context
	left atomic.Int64
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *pollsCtx) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		return closedChan
	}
	return nil
}

func (c *pollsCtx) Err() error {
	if c.left.Load() < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidTreePopsTheStack: a run cancelled at any poll site unwinds
// every frame through its release (putWS panics on a workspace that comes
// back with a live arena, in whichever goroutine), and the next partition
// on the pooled workspaces it dirtied is byte-identical to the pinned one.
func TestCancelMidTreePopsTheStack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gr := meshGraph(t, 8)
	for _, m := range []Method{RB, KWay, KWayVol} {
		opt := Options{Method: m, Seed: 7}
		want := wantAssignment(t, gr, 48, opt)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			cancelled := 0
			for polls := int64(1); polls < 1<<12; polls += 1 + polls/3 {
				ctx := &pollsCtx{Context: context.Background()}
				ctx.left.Store(polls)
				p, err := PartitionCtx(ctx, gr, 48, opt)
				if err == nil {
					sameAssignment(t, fmt.Sprintf("%v uncancelled after %d polls", m, polls), p.Assignment(), want)
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				cancelled++
				sameAssignment(t, fmt.Sprintf("%v after a cancel at poll %d", m, polls), wantAssignment(t, gr, 48, opt), want)
			}
			if cancelled < 8 {
				t.Errorf("%v: only %d cancelled runs; the sweep no longer reaches mid-tree", m, cancelled)
			}
		}
	}
}

// TestArenaGrowthMidTree starts RB and K-way on a workspace whose arena is
// 4 KiB, so the chunk is replaced again and again while the slices of the
// frames below — parents' subgraphs, finer levels — are live in older ones.
func TestArenaGrowthMidTree(t *testing.T) {
	gr := meshGraph(t, 12)
	g := fromGraph(gr)
	small := func() *workspace { return &workspace{arena: make([]int32, 1024)} }
	check := func(ws *workspace) {
		t.Helper()
		if len(ws.arena) <= 1024 || ws.top != 0 || ws.ngraph != 0 {
			t.Errorf("arena of %d words, top=%d ngraph=%d: want a replaced chunk and an empty stack", len(ws.arena), ws.top, ws.ngraph)
		}
	}
	ws := small()
	sameAssignment(t, "RB", rbOn(ws, g, 96, 5, nil), wantAssignment(t, gr, 96, Options{Method: RB, Seed: 5}))
	check(ws)
	for _, m := range []Method{KWay, KWayVol} {
		ws, opt, got := small(), Options{Method: m, Seed: 5}, make([]int32, g.n())
		kwayPartition(g, 96, got, prng.New(prng.Mix(5)), opt, nil, ws)
		sameAssignment(t, m.String(), got, wantAssignment(t, gr, 96, opt))
		check(ws)
	}
}

// BenchmarkBisectStages times the four stages of one top-level bisection of
// the K=13824 graph, each on inputs built outside the timer, so a metis PR can
// name the stage it moves before it starts (BENCH_metis.json,
// bisect_<stage>_k13824_ns_per_op): coarsen (matching + contraction, every
// level), initial (the greedy-growing trials on the coarsest graph), refine
// (projection + FM at every level) and split (both child subgraphs with their
// id lists).
func BenchmarkBisectStages(b *testing.B) {
	g := fromGraph(meshGraph(b, 48))
	n := g.n()
	tw0 := float64(g.totalVWgt()) / 2
	band := rbImbalance * float64(g.totalVWgt())
	ws := new(workspace)
	levels, coarsest := coarsen(g, coarsenTo, prng.New(1), ws, nil)
	levels = append([]coarseLevel(nil), levels...) // ws.levels is coarsen's to reuse
	first, best, trial := make([]int8, coarsest.n()), make([]int8, coarsest.n()), make([]int8, coarsest.n())
	initialBisection(coarsest, tw0, band, prng.New(2), ws, nil, first, trial)
	bufs := [2][]int8{make([]int8, n), make([]int8, n)}
	uncoarsen := func() []int8 {
		side, spare := bufs[0][:len(first)], bufs[1]
		copy(side, first)
		fmRefine(coarsest, side, tw0, band, refineIters, ws, nil)
		for i := len(levels) - 1; i >= 0; i-- {
			fine := spare[:levels[i].fine.n()]
			for v := range fine {
				fine[v] = side[levels[i].cmap[v]]
			}
			side, spare = fine, side
			fmRefine(levels[i].fine, side, tw0, band, refineIters, ws, nil)
		}
		return side
	}
	final := append([]int8(nil), uncoarsen()...)
	verts := make([]int32, n)
	stages := []struct {
		name string
		run  func()
	}{
		{"coarsen", func() { coarsen(g, coarsenTo, prng.New(1), ws, nil) }},
		{"initial", func() { initialBisection(coarsest, tw0, band, prng.New(2), ws, nil, best, trial) }},
		{"refine", func() { uncoarsen() }},
		{"split", func() { subgraph(g, verts, final, 0, ws, ws); subgraph(g, verts, final, 1, ws, ws) }},
	}
	for _, st := range stages {
		b.Run(st.name+"/K13824", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := ws.mark()
				st.run()
				ws.release(m)
			}
		})
	}
}

// BenchmarkKWayStages is BenchmarkBisectStages for BenchmarkKWayK13824P768:
// the stages of one K-way partition of the K=13824 graph into 768 parts, each
// on inputs built outside the timer (kway_<stage>_k13824_p768_ns_per_op in
// BENCH_metis.json, report-only). coarsen is matching and contraction at
// every level; initial the recursive bisection of the coarsest graph; balance
// forceBalance alone on the projected assignment each level's refinement
// starts from; refine-cut and refine-vol kwayRefine at every level (balance
// included) under either objective, from that objective's own projections.
func BenchmarkKWayStages(b *testing.B) {
	const nparts = 768
	g := fromGraph(meshGraph(b, 48))
	ws := new(workspace)
	levels, coarsest := coarsen(g, max(coarsenTo*nparts/8, 4*nparts), prng.New(1), ws, nil)
	levels = append([]coarseLevel(nil), levels...) // ws.levels is coarsen's to reuse
	initial := make([]int32, coarsest.n())
	runRB(coarsest, nparts, initial, 2, nil)
	maxVW, _, _ := g.stats()
	maxPart := maxPartWeight(g.totalVWgt(), nparts, imbalance, maxVW)
	// lvGraphs[i] is refined at step i of the V-cycle's way up, from
	// starts[vol][i]: the coarsest graph first, the finest last.
	lvGraphs := []*wgraph{coarsest}
	for i := len(levels) - 1; i >= 0; i-- {
		lvGraphs = append(lvGraphs, levels[i].fine)
	}
	var starts [2][][]int32
	for vol := range starts {
		assign := append([]int32(nil), initial...)
		rng := prng.New(3)
		for i, lg := range lvGraphs {
			if i > 0 {
				cmap, fine := levels[len(levels)-i].cmap, make([]int32, lg.n())
				for v := range fine {
					fine[v] = assign[cmap[v]]
				}
				assign = fine
			}
			starts[vol] = append(starts[vol], append([]int32(nil), assign...))
			kwayRefine(lg, assign, nparts, maxPart, vol == 1, refineIters, rng, ws, nil)
		}
	}
	buf, pwgt, conn := make([]int32, g.n()), make([]int64, nparts), make([]int64, nparts)
	refine := func(vol int) {
		rng := prng.New(3)
		for i, lg := range lvGraphs {
			copy(buf, starts[vol][i])
			kwayRefine(lg, buf[:lg.n()], nparts, maxPart, vol == 1, refineIters, rng, ws, nil)
		}
	}
	stages := []struct {
		name string
		run  func()
	}{
		{"coarsen", func() { coarsen(g, max(coarsenTo*nparts/8, 4*nparts), prng.New(1), ws, nil) }},
		{"initial", func() { runRB(coarsest, nparts, buf[:coarsest.n()], 2, nil) }},
		{"balance", func() {
			for i, lg := range lvGraphs {
				assign := buf[:lg.n()]
				copy(assign, starts[0][i])
				clear(pwgt)
				for v, p := range assign {
					pwgt[p] += int64(lg.vwgt[v])
				}
				r := refiner{g: lg, assign: assign, pwgt: pwgt, conn: conn, maxPart: maxPart, ws: ws}
				r.forceBalance()
			}
		}},
		{"refine-cut", func() { refine(0) }},
		{"refine-vol", func() { refine(1) }},
	}
	for _, st := range stages {
		b.Run(st.name+"/K13824P768", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := ws.mark()
				st.run()
				ws.release(m)
			}
		})
	}
}
