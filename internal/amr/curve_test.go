package amr

import (
	"reflect"
	"testing"

	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// testForests builds a representative set of forests: unrefined, uniformly
// refined, locally refined (with hanging nodes), and a mixed 2^n*3^m base.
func testForests(t *testing.T) map[string]*Forest {
	t.Helper()
	out := map[string]*Forest{}
	mk := func(name string, ne, maxLevel int, refine RefineFunc) {
		f, err := NewForest(ne, maxLevel, refine)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = f
	}
	mk("flat-ne4", 4, 2, nil)
	mk("uniform-ne2-l2", 2, 2, func(Leaf) bool { return true })
	mk("local-ne4-l2", 4, 2, func(l Leaf) bool {
		return l.Face == mesh.FacePX || (l.Face == mesh.FaceNZ && l.X == 0)
	})
	mk("local-ne6-l3", 6, 3, func(l Leaf) bool {
		return (l.X+l.Y)%3 == 0
	})
	return out
}

// TestCurveOrderMatchesFineMeshOrder is the differential test anchoring the
// tree algorithm: descending the refinement path below the base curve must
// reproduce, leaf for leaf, the order obtained by ranking descendants on the
// finest uniform mesh.
func TestCurveOrderMatchesFineMeshOrder(t *testing.T) {
	for name, f := range testForests(t) {
		for _, ord := range []sfc.Order{sfc.PeanoFirst, sfc.HilbertFirst, sfc.Interleaved} {
			want, err := f.Order(ord)
			if err != nil {
				t.Fatalf("%s/%v: Order: %v", name, ord, err)
			}
			got, err := f.CurveOrder(ord)
			if err != nil {
				t.Fatalf("%s/%v: CurveOrder: %v", name, ord, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v: tree order disagrees with fine-mesh order", name, ord)
			}
		}
	}
}

func TestCurveOrderKeyOverflow(t *testing.T) {
	f, err := NewForest(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.maxLevel = 31 // forged: NewForest caps at 12, exercise the guard directly
	if _, err := f.leafKeys(sfc.PeanoFirst); err == nil {
		t.Fatal("expected key-overflow error")
	}
}

func TestLeafWeightsLevelScaling(t *testing.T) {
	f, err := NewForest(2, 2, func(l Leaf) bool { return l.Face == mesh.FacePZ })
	if err != nil {
		t.Fatal(err)
	}
	w := f.LeafWeights(weights.Spec{}) // uniform spec: weight = 2^level
	for i, l := range f.Leaves() {
		if want := int64(1) << uint(l.Level); w[i] != want {
			t.Fatalf("leaf %d level %d: weight %d, want %d", i, l.Level, w[i], want)
		}
	}
	spec, err := weights.Parse("cfl:amp=4")
	if err != nil {
		t.Fatal(err)
	}
	wc := f.LeafWeights(spec)
	for i, l := range f.Leaves() {
		base := spec.Weight(l.Center(2))
		if want := base << uint(l.Level); wc[i] != want {
			t.Fatalf("leaf %d: weight %d, want %d", i, wc[i], want)
		}
	}
}

func TestPartitionCurveContiguousAndBalanced(t *testing.T) {
	for name, f := range testForests(t) {
		n := f.NumLeaves()
		for _, nparts := range []int{1, 3, 7, n} {
			p, err := f.PartitionCurve(sfc.PeanoFirst, nparts, nil)
			if err != nil {
				t.Fatalf("%s/p%d: %v", name, nparts, err)
			}
			if p.NumParts() != nparts || p.NumVertices() != n {
				t.Fatalf("%s/p%d: got %d parts over %d leaves", name, nparts, p.NumParts(), p.NumVertices())
			}
			// Contiguity on the curve: part index is non-decreasing along the
			// leaf visit order and every part is non-empty.
			idx, err := f.CurveOrder(sfc.PeanoFirst)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0
			for rank, leaf := range idx {
				q := p.Part(leaf)
				if q < prev || q > prev+1 {
					t.Fatalf("%s/p%d: part jumps %d -> %d at rank %d", name, nparts, prev, q, rank)
				}
				prev = q
			}
			if prev != nparts-1 {
				t.Fatalf("%s/p%d: last part %d, want %d", name, nparts, prev, nparts-1)
			}
		}
	}
}

func TestPartitionCurveWeighted(t *testing.T) {
	f, err := NewForest(4, 2, func(l Leaf) bool { return l.Face == mesh.FaceNY })
	if err != nil {
		t.Fatal(err)
	}
	w := f.LeafWeights(weights.Spec{}) // 2^level
	const nparts = 6
	p, err := f.PartitionCurve(sfc.PeanoFirst, nparts, w)
	if err != nil {
		t.Fatal(err)
	}
	// The weighted split must balance total weight strictly better than the
	// unweighted split does on this forest (refined leaves cluster on one
	// face, so equal leaf counts give unequal weight).
	pu, err := f.PartitionCurve(sfc.PeanoFirst, nparts, nil)
	if err != nil {
		t.Fatal(err)
	}
	lbOf := func(p *partition.Partition) float64 {
		sums := make([]int64, nparts)
		for i, q := range p.Assignment() {
			sums[q] += w[i]
		}
		return partition.LoadBalance(sums)
	}
	if lbW, lbU := lbOf(p), lbOf(pu); lbW >= lbU {
		t.Fatalf("weighted LB %.4f not better than unweighted LB %.4f", lbW, lbU)
	}

	// Typed validation errors propagate.
	bad := append([]int64(nil), w...)
	bad[3] = -1
	if _, err := f.PartitionCurve(sfc.PeanoFirst, nparts, bad); err == nil {
		t.Fatal("expected *partition.WeightError")
	}
	if _, err := f.PartitionCurve(sfc.PeanoFirst, nparts, make([]int64, f.NumLeaves())); err == nil {
		t.Fatal("expected *partition.ZeroTotalWeightError")
	}
	if _, err := f.PartitionCurve(sfc.PeanoFirst, nparts, w[:3]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := f.PartitionCurve(sfc.PeanoFirst, 0, nil); err == nil {
		t.Fatal("expected nparts range error")
	}
}

// TestDescendReproducesRefinedCurve pins the sfc.Descend contract at the amr
// call site: one Hilbert descent from the base curve's ElemXF must agree
// with the curve generated from the extended schedule.
func TestDescendReproducesRefinedCurve(t *testing.T) {
	const ne = 6
	m, err := mesh.New(ne)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := mesh.New(2 * ne)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sfc.ScheduleFor(ne, sfc.PeanoFirst)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sfc.NewCubeCurve(m, sched)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sfc.NewCubeCurve(fine, append(append(sfc.Schedule{}, sched...), sfc.Hilbert))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < m.NumElems(); e++ {
		el := m.Elem(mesh.ElemID(e))
		rank, t0 := base.ElemXF(mesh.ElemID(e))
		if base.At(rank) != mesh.ElemID(e) {
			t.Fatalf("elem %d: ElemXF ranks it %d, where the curve visits %d", e, rank, base.At(rank))
		}
		for _, q := range []sfc.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}} {
			digit, _ := sfc.Descend(t0, sfc.Hilbert, q)
			child := fine.ID(el.Face, 2*el.I+q.X, 2*el.J+q.Y)
			// The refined curve's recursion (At) and its descent (ElemXF)
			// must both put the child where the base descent says.
			want := 4*rank + digit
			if got, _ := ref.ElemXF(child); got != want || ref.At(want) != child {
				t.Fatalf("elem %d child %v: fine rank %d (At(%d) = %d), want %d", e, q, got, want, ref.At(want), want)
			}
		}
	}
}

// BenchmarkForestOrders records the two leaf orderings of one locally refined
// forest (Ne=16, two levels; the leaf count is reported): CurveOrder, one
// descent of the cube curve per leaf, and the brute-force reference Order,
// which builds the Ne=64 curve and inverts it with a table of its own.
func BenchmarkForestOrders(b *testing.B) {
	f, err := NewForest(16, 2, func(l Leaf) bool { return (l.X+l.Y)%3 != 0 })
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		order func(sfc.Order) ([]int, error)
	}{{"CurveOrder", f.CurveOrder}, {"Order", f.Order}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.order(sfc.PeanoFirst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.NumLeaves()), "leaves")
		})
	}
}
