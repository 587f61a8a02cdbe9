package partition_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
)

// statsViews returns the mesh view of the Ne mesh under opt and two CSR
// graphs of it, every vertex weighing 1 in all three. The first graph is
// accumulated by the Builder from mesh.EdgeNeighbors/CornerNeighbors, so it
// shares nothing with the view's row layout or Stencil: a wrong stencil
// offset or weight makes the two disagree. The second is graph.FromMesh,
// the view's rows streamed into CSR form.
func statsViews(t testing.TB, ne int, opt graph.Options) (view *graph.MeshView, built, streamed *graph.Graph) {
	t.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		t.Fatal(err)
	}
	view = graph.NewMeshView(m, opt)
	k, ew, cw := m.NumElems(), max(opt.EdgeWeight, 1), max(opt.CornerWeight, 1) // zero means 1
	b := graph.NewBuilder(k)
	add := func(e int, nbrs []mesh.ElemID, w int32) {
		for _, u := range nbrs {
			if int(u) > e {
				if err := b.AddEdge(e, int(u), w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for e := 0; e < k; e++ {
		add(e, m.EdgeNeighbors(mesh.ElemID(e)), ew)
		if opt.IncludeCorners {
			add(e, m.CornerNeighbors(mesh.ElemID(e)), cw)
		}
	}
	if streamed, err = graph.FromMesh(m, opt); err != nil {
		t.Fatal(err)
	}
	return view, b.Build(), streamed
}

// compareStats holds StatsOver over the view to the blocked reference and to
// the CSR sweep (ComputeStatsWeighted) over both graphs of statsViews, and
// the Builder graph's stats to the independent oracle — field for field.
func compareStats(t testing.TB, view *graph.MeshView, built, streamed *graph.Graph, part *partition.Partition, weights []int64) {
	t.Helper()
	got, err := partition.StatsOver(view, part, weights)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"Builder": built, "FromMesh": streamed} {
		ref, err := partition.StatsOverBlocked(g, part, weights)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("StatsOver(view)       %+v\nblocked reference(%s) %+v", got, name, ref)
		}
		csr, err := partition.ComputeStatsWeighted(g, part, weights)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, csr) {
			t.Fatalf("StatsOver(view)           %+v\nComputeStatsWeighted(%s) %+v", got, name, csr)
		}
	}
	if err := check.CrossCheckStats(built, part); err != nil {
		t.Fatal(err)
	}
}

// statsOptions are the graph options the differential tests sweep: the
// paper's weights, no corners, non-default edge and corner weights, and an
// explicit element weight vector.
func statsOptions(k int) map[string]statsCase {
	w := make([]int64, k)
	for v := range w {
		w[v] = int64(v * v % 7) // zeros included
	}
	return map[string]statsCase{
		"default":   {opt: graph.DefaultOptions()},
		"nocorners": {opt: graph.Options{EdgeWeight: 3, IncludeCorners: false}},
		"weights":   {opt: graph.Options{EdgeWeight: 5, CornerWeight: 2, IncludeCorners: true}},
		"vertex":    {opt: graph.DefaultOptions(), weights: w},
	}
}

// statsCase is one configuration of statsOptions: graph options and an
// explicit element weight vector (nil: unit).
type statsCase struct {
	opt     graph.Options
	weights []int64
}

// TestStatsStencilMatchesReference: the stencil sweep gives, field for field,
// what the blocked sweep it replaced gives, on meshes from Ne=1 and 2
// (no face-interior element) and 3 (one) up to 32, under every option the
// view honours, for method cuts and for scattered assignments that cut every
// row, leave a part empty or split one into pieces.
func TestStatsStencilMatchesReference(t *testing.T) {
	for _, ne := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 32} {
		k := 6 * ne * ne
		parts := map[string]*partition.Partition{}
		prob, err := core.NewProblem(ne)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range []string{"sfc", "serpentine", "kway"} {
			part, err := core.Run(context.Background(), method, prob, max(2, k/8), 1, nil)
			if err != nil {
				var neErr *core.NeError
				if method == "sfc" && errors.As(err, &neErr) {
					continue // Ne is not 2^n 3^m: no Hilbert–Peano curve
				}
				t.Fatalf("ne=%d %s: %v", ne, method, err)
			}
			parts[method] = part
		}
		scattered := func(nparts int, assign func(rng *rand.Rand, e int) int) *partition.Partition {
			rng := rand.New(rand.NewSource(int64(ne)<<20 | int64(nparts)))
			part := partition.New(k, nparts)
			for e := 0; e < k; e++ {
				part.SetPart(e, assign(rng, e))
			}
			return part
		}
		for _, nparts := range []int{1, 2, k} {
			parts[fmt.Sprintf("scattered/p%d", nparts)] = scattered(nparts, func(rng *rand.Rand, _ int) int { return rng.Intn(nparts) })
		}
		parts["scattered/empty"] = scattered(5, func(rng *rand.Rand, _ int) int { return rng.Intn(4) })
		parts["scattered/split"] = scattered(3, func(rng *rand.Rand, e int) int {
			if e < 3*ne*ne && e%(ne*ne) == (ne/2)*ne+ne/2 {
				return 0
			}
			return 1 + rng.Intn(2)
		})
		for oname, c := range statsOptions(k) {
			view, built, streamed := statsViews(t, ne, c.opt)
			for pname, part := range parts {
				t.Run(fmt.Sprintf("ne%d/%s/%s", ne, oname, pname), func(t *testing.T) {
					compareStats(t, view, built, streamed, part, c.weights)
				})
			}
		}
	}
}

// TestStatsViewRingBuffersFit: below Ne = 3 every element of a face is on
// its ring, so every cell of the pad is a ring or halo cell; the face
// sweep's buffers (pad, union-find, ring slots) must still be sized once, up
// front. StatsOver over the view makes as many allocations at Ne = 1, 2 and
// 3 as at Ne = 4 and 16: nothing is grown or allocated per face.
func TestStatsViewRingBuffersFit(t *testing.T) {
	allocs := func(ne int) float64 {
		view, _, _ := statsViews(t, ne, graph.DefaultOptions())
		k := 6 * ne * ne
		part := partition.New(k, 2)
		for v := 0; v < k; v++ {
			part.SetPart(v, v%2)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := partition.StatsOver(view, part, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := allocs(4)
	for _, ne := range []int{1, 2, 3, 16} {
		if got := allocs(ne); got != want {
			t.Errorf("ne=%d: StatsOver(view) made %.0f allocations, %.0f at ne=4", ne, got, want)
		}
	}
}

// FuzzStatsView drives the stencil sweep over (Ne ≤ 24, part count, seed,
// corners, element weights): a seed-scattered, an id-blocked or a mesh-row
// striped assignment, and seed-drawn edge and corner weights. The view, the
// CSR graphs, the blocked reference and the independent oracle must agree.
func FuzzStatsView(f *testing.F) {
	f.Add(uint8(2), uint16(5), int64(0), true, false)
	f.Add(uint8(7), uint16(96), int64(1), true, true)
	f.Add(uint8(11), uint16(3), int64(2), false, false)
	f.Add(uint8(23), uint16(768), int64(-5), true, true)
	f.Fuzz(func(t *testing.T, neRaw uint8, npRaw uint16, seed int64, corners, weighted bool) {
		ne := 1 + int(neRaw)%24
		k := 6 * ne * ne
		nparts := 1 + int(npRaw)%k
		x := uint64(seed)*6364136223846793005 + 1442695040888963407
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33
		}
		opt := graph.Options{EdgeWeight: int32(1 + next()%9), CornerWeight: int32(1 + next()%9), IncludeCorners: corners}
		var w []int64
		if weighted {
			w = make([]int64, k)
			for v := range w {
				w[v] = int64(1 + next()%16)
			}
		}
		view, built, streamed := statsViews(t, ne, opt)
		part := partition.New(k, nparts)
		mode := uint64(seed) % 3
		for v := 0; v < k; v++ {
			switch mode {
			case 0:
				part.SetPart(v, int(next()%uint64(nparts)))
			case 1:
				part.SetPart(v, v*nparts/k)
			default:
				part.SetPart(v, v/ne%nparts)
			}
		}
		compareStats(t, view, built, streamed, part, w)
	})
}

// TestStatsSeams holds the face-at-a-time sweep to the blocked
// reference where it can go wrong: the seams. Part 0 is, in turn, a ring
// element and the element across from it on every side of every face
// (joined only across one cube edge), the three elements at every cube
// corner (joined only through the corner's three faces), and the centres
// of two opposite faces (two pieces); everything else is part 1, which
// stays connected. Ne runs from 1 to 9 with corners on and off, and the
// component counts are checked against their known values as well.
func TestStatsSeams(t *testing.T) {
	for ne := 1; ne <= 9; ne++ {
		m, err := mesh.New(ne)
		if err != nil {
			t.Fatal(err)
		}
		k, n2 := m.NumElems(), ne*ne
		across := func(f, side, p int) int {
			first, step := m.SeamStrip(mesh.Face(f), side)
			return int(first) + p*step
		}
		type seamCase struct {
			name  string
			elems []int
			comps int // of part 0
		}
		var cases []seamCase
		for f := range mesh.NumFaces {
			for side := range 4 {
				p, fixed := ne/2, (side%2)*(ne-1)
				i, j := p, fixed
				if side < 2 {
					i, j = fixed, p
				}
				cases = append(cases, seamCase{fmt.Sprintf("edge/f%d/s%d", f, side), []int{f*n2 + j*ne + i, across(f, side, p)}, 1})
			}
			for _, c := range [][2]int{{0, 0}, {ne - 1, 0}, {0, ne - 1}, {ne - 1, ne - 1}} {
				i, j := c[0], c[1]
				elems := []int{f*n2 + j*ne + i, across(f, min(i, 1), j), across(f, 2+min(j, 1), i)}
				cases = append(cases, seamCase{fmt.Sprintf("corner/f%d/%d,%d", f, i, j), elems, 1})
			}
		}
		centre := ne/2*ne + ne/2
		for _, fg := range [][2]int{{0, 2}, {1, 3}, {4, 5}} {
			f, g := fg[0], fg[1]
			cases = append(cases, seamCase{fmt.Sprintf("apart/f%d-f%d", f, g), []int{f*n2 + centre, g*n2 + centre}, 2})
		}
		for _, corners := range []bool{true, false} {
			opt := graph.Options{EdgeWeight: 2, CornerWeight: 3, IncludeCorners: corners}
			view, built, streamed := statsViews(t, ne, opt)
			for _, c := range cases {
				t.Run(fmt.Sprintf("ne%d/corners=%v/%s", ne, corners, c.name), func(t *testing.T) {
					part := partition.New(k, 2)
					for v := 0; v < k; v++ {
						part.SetPart(v, 1)
					}
					for _, e := range c.elems {
						part.SetPart(e, 0)
					}
					compareStats(t, view, built, streamed, part, nil)
					st, err := partition.StatsOver(view, part, nil)
					if err != nil {
						t.Fatal(err)
					}
					if want := min(c.comps-1, 1); st.DisconnectedParts != want || st.MaxComponents != c.comps {
						t.Errorf("part 0 = %v: DisconnectedParts %d, MaxComponents %d; want %d, %d",
							c.elems, st.DisconnectedParts, st.MaxComponents, want, c.comps)
					}
				})
			}
		}
	}
}

// TestViewStatsAllocationCount pins how many objects a Stats call over the
// mesh view of a unit-cost Problem allocates: Nelemd, the sweep's stamp and
// Spcv vectors, and one slab cut into the padded face, its union-find and the
// ring slots. With a make for each of the three it was six.
func TestViewStatsAllocationCount(t *testing.T) {
	for _, ne := range []int{16, 64} {
		prob, err := core.NewProblem(ne)
		if err != nil {
			t.Fatal(err)
		}
		part, err := core.Run(context.Background(), "sfc", prob, 6*ne*ne/16, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := prob.Stats(part); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("Ne=%d: a Stats call over the mesh view allocates %.0f objects, want at most 4", ne, allocs)
		}
	}
}

// TestViewStatsMemoryCeiling pins what a Stats call over the mesh view of a
// Problem may allocate: the per-part arrays (Nelemd and Spcv, 8 bytes
// a part, and the sweep's 4-byte stamp), a padded face and its union-find
// (4 bytes a cell each, (Ne+2)² cells), the ring slots (4·Ne a face, 4 bytes
// each), and 8 KiB of slack. A K-long union-find (4 bytes an element, what
// the sweep allocated before it ran a face at a time, and what the CSR sweep
// allocates) breaks it at Ne=64, where it is twelve times the slack. The
// ceiling holds for a fresh Problem and for one whose Graph was built before
// Stats: what ran before does not choose the sweep.
func TestViewStatsMemoryCeiling(t *testing.T) {
	for _, c := range []struct {
		ne    int
		built bool
	}{{16, false}, {64, false}, {16, true}, {64, true}} {
		const rounds = 4
		ne := c.ne
		k, nparts := 6*ne*ne, 6*ne*ne/16
		probs, parts := make([]*core.Problem, rounds), make([]*partition.Partition, rounds)
		for i := range probs {
			var err error
			if probs[i], err = core.NewProblem(ne); err != nil {
				t.Fatal(err)
			}
			if c.built {
				if _, err := probs[i].Graph(); err != nil {
					t.Fatal(err)
				}
			}
			if parts[i], err = core.Run(context.Background(), "sfc", probs[i], nparts, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, p := range probs {
			if _, err := p.Stats(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := int64(after.TotalAlloc-before.TotalAlloc) / rounds
		ceiling := int64(20*nparts + 8*(ne+2)*(ne+2) + 4*4*ne*mesh.NumFaces + 8<<10)
		if perCall > ceiling {
			t.Errorf("Ne=%d graph built=%v: a Stats call allocated %d bytes for K=%d elements, %d parts (ceiling %d): a per-element array is back",
				ne, c.built, perCall, k, nparts, ceiling)
		} else {
			t.Logf("Ne=%d graph built=%v: %d bytes/call, ceiling %d", ne, c.built, perCall, ceiling)
		}
	}
}
