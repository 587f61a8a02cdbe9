package weights

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sfccube/internal/mesh"
)

func TestParseCanonical(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", "uniform"},
		{"uniform", "uniform"},
		{"cfl", "cfl"},
		{"cfl:amp=8", "cfl"}, // default amp spelled out
		{"cfl:amp=16", "cfl:amp=16"},
		{"cfl:amp=16,alpha=0.5", "cfl:amp=16,alpha=0.5"},
		{"CFL:Alpha=0.5, Amp=16", "cfl:amp=16,alpha=0.5"}, // case/space/order normalise
		{"hv", "hv"},
		{"hyperviscosity", "hv"},
		{"hv:m=4", "hv"}, // default wavenumber
		{"hv:amp=16,m=6", "hv:amp=16,m=6"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := s.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Idempotence: the canonical spelling parses back to itself.
		s2, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if s2 != s {
			t.Errorf("Parse(%q) = %+v, want %+v (not idempotent)", s.String(), s2, s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"vorticity",           // unknown kind
		"uniform:amp=2",       // uniform takes no params
		"cfl:amp",             // not key=value
		"cfl:speed=3",         // unknown param
		"cfl:amp=0.5",         // amp < 1
		"cfl:amp=1e9",         // amp > MaxAmp
		"cfl:amp=nan",         // non-finite
		"cfl:alpha=inf",       // non-finite
		"cfl:m=4",             // m only applies to hv
		"hv:alpha=1",          // alpha only applies to cfl
		"hv:m=0",              // wavenumber out of range
		"hv:m=65",             // wavenumber out of range
		"hv:m=four",           // not an int
		"cfl:amp=sixteen",     // not a float
		"hv:amp=16,m=6,zed=1", // unknown trailing param
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("Parse(%q): error %T, want *ParseError", in, err)
		}
	}
}

func TestGenerateBoundsAndShape(t *testing.T) {
	m, err := mesh.New(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, specStr := range []string{"cfl", "hv", "cfl:amp=32", "hv:amp=16,m=6"} {
		s, err := Parse(specStr)
		if err != nil {
			t.Fatal(err)
		}
		w := s.Generate(m)
		if len(w) != m.NumElems() {
			t.Fatalf("%s: %d weights for %d elements", specStr, len(w), m.NumElems())
		}
		amp := int64(math.Round(s.Amp))
		min, max := w[0], w[0]
		for _, v := range w {
			if v < 1 || v > amp {
				t.Fatalf("%s: weight %d outside [1, %d]", specStr, v, amp)
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if min == max {
			t.Errorf("%s: degenerate constant weights (%d); proxy should vary over the sphere", specStr, min)
		}
		// Pure function of (mesh, spec): repeated generation is identical.
		if !reflect.DeepEqual(w, s.Generate(m)) {
			t.Errorf("%s: Generate is not deterministic", specStr)
		}
	}
}

func TestGenerateUniformIsNil(t *testing.T) {
	m, err := mesh.New(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse("uniform")
	if err != nil {
		t.Fatal(err)
	}
	if w := s.Generate(m); w != nil {
		t.Fatalf("uniform spec generated %d weights, want nil", len(w))
	}
	if !s.IsUniform() {
		t.Fatal("uniform spec not IsUniform")
	}
}

func TestActivityRange(t *testing.T) {
	m, err := mesh.New(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, specStr := range []string{"cfl", "hv:m=3", "hv:m=8"} {
		s, err := Parse(specStr)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < m.NumElems(); e++ {
			a := s.Activity(m.ElemCenter(mesh.ElemID(e)))
			if a < 0 || a > 1+1e-12 || math.IsNaN(a) {
				t.Fatalf("%s: activity %g outside [0,1] at element %d", specStr, a, e)
			}
		}
	}
}

// trigWeight is Weight as it was before the complex power: the trig formula of
// Activity, rounded. It is the reference Generate is held to.
func trigWeight(s Spec, p mesh.Vec3) int64 {
	if s.Kind == Uniform {
		return 1
	}
	return 1 + int64(math.Round(s.Activity(p)*(s.Amp-1)))
}

// trigGenerate is Generate as it was before the tangent table: one
// mesh.ElemCenter and one trigWeight per element.
func trigGenerate(s Spec, m *mesh.Mesh) []int64 {
	if s.Kind == Uniform {
		return nil
	}
	w := make([]int64, m.NumElems())
	for e := range w {
		w[e] = trigWeight(s, m.ElemCenter(mesh.ElemID(e)))
	}
	return w
}

func mustMesh(tb testing.TB, ne int) *mesh.Mesh {
	tb.Helper()
	m, err := mesh.New(ne)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int64) int {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestGenerateMatchesTrigReference holds Generate's integers to the trig
// reference over a grid of specs and every mesh size up to 48, then 64, 96,
// 128, 192 and (outside -short) 384. The reference is evaluated as
// trigWeight does, with Activity computed once per (shape, element) and
// rounded once per amp, so the grid costs one Activity per shape.
func TestGenerateMatchesTrigReference(t *testing.T) {
	amps := []float64{1, 1.5, 2, 8, 16, 1e6}
	var shapes []Spec // Activity depends on Kind and Alpha or Wavenumber only
	for _, alpha := range []float64{0, 0.5, math.Pi / 4, math.Pi / 2, 3, -1} {
		shapes = append(shapes, Spec{Kind: CFL, Alpha: alpha})
	}
	for _, m := range []int{1, 2, 3, 4, 6, 16, 63, 64} {
		shapes = append(shapes, Spec{Kind: Hyperviscosity, Wavenumber: m})
	}
	// Spec literals Parse rejects: Generate is exported over any value.
	rejected := []Spec{
		{Kind: CFL, Amp: 0.5, Alpha: 1},
		{Kind: Hyperviscosity, Amp: 0.5, Wavenumber: 4},
		{Kind: Hyperviscosity, Amp: -3, Wavenumber: 2},
		{Kind: Hyperviscosity, Amp: 16, Wavenumber: 0},
		{Kind: Hyperviscosity, Amp: 16, Wavenumber: 65},
		{Kind: Hyperviscosity, Amp: 16, Wavenumber: -2},
		{Kind: Kind(7), Amp: 8},
	}
	var sizes []int
	for ne := 1; ne <= 48; ne++ {
		sizes = append(sizes, ne)
	}
	sizes = append(sizes, 64, 96, 128, 192)
	if !testing.Short() {
		sizes = append(sizes, 384)
	}
	for _, ne := range sizes {
		m := mustMesh(t, ne)
		centres := make([]mesh.Vec3, m.NumElems())
		for e := range centres {
			centres[e] = m.ElemCenter(mesh.ElemID(e))
		}
		act := make([]float64, len(centres))
		for _, shape := range shapes {
			for e, p := range centres {
				act[e] = shape.Activity(p)
			}
			for _, amp := range amps {
				s := shape
				s.Amp = amp
				got := s.Generate(m)
				for e, a := range act {
					if want := 1 + int64(math.Round(a*(amp-1))); got[e] != want {
						t.Fatalf("ne=%d %+v: element %d weight %d, trig reference %d", ne, s, e, got[e], want)
					}
				}
			}
		}
		if ne <= 48 || ne == 128 {
			for _, s := range rejected {
				if i := firstDiff(s.Generate(m), trigGenerate(s, m)); i >= 0 {
					t.Fatalf("ne=%d %+v: element %d differs from the trig reference", ne, s, i)
				}
			}
		}
	}
}

// TestWeightTieUsesReference: at p = (1,0,0) with m = 1 and amp = 1.5,
// activity·(amp−1) is exactly ½, so the guard must hand the point to
// Activity, and Weight must still be the reference's 1 + round(½) = 2.
func TestWeightTieUsesReference(t *testing.T) {
	s := Spec{Kind: Hyperviscosity, Amp: 1.5, Wavenumber: 1}
	p := mesh.Vec3{X: 1}
	if w, ok := s.hv(p); ok {
		t.Fatalf("activity·(amp−1) = ½ exactly and the guard passed the fast weight %d", w)
	}
	if got, want := s.Weight(p), trigWeight(s, p); got != want || want != 2 {
		t.Fatalf("Weight at the tie = %d, reference %d, want 2", got, want)
	}
}

// TestWideBandGivesReference widens the guard to every point, so every hv
// weight comes from the fallback: the vectors must not move, which proves
// the fallback is wired to the reference and not merely never reached.
func TestWideBandGivesReference(t *testing.T) {
	defer func(b float64) { tieBand = b }(tieBand)
	tieBand = math.Inf(1)
	for _, ne := range []int{1, 5, 16, 33} {
		m := mustMesh(t, ne)
		for _, str := range []string{"hv", "hv:amp=16,m=6", "hv:amp=1000000,m=64", "hv:amp=7,m=1", "cfl:amp=16,alpha=0.5"} {
			s, err := Parse(str)
			if err != nil {
				t.Fatal(err)
			}
			if s.Kind == Hyperviscosity {
				if _, ok := s.hv(m.ElemCenter(0)); ok {
					t.Fatalf("%s: an infinite band let the fast path through", str)
				}
			}
			if i := firstDiff(s.Generate(m), trigGenerate(s, m)); i >= 0 {
				t.Fatalf("ne=%d %s: element %d differs from the trig reference with the guard always on", ne, str, i)
			}
		}
	}
}

// FuzzGenerate holds Generate to the trig reference over arbitrary spec
// values — including the ones Parse rejects — on meshes up to Ne=24. Seeds:
// testdata/fuzz/FuzzGenerate (the exact tie, amp and m at their limits and
// beyond them, a NaN amp, an infinite alpha, an unknown kind).
func FuzzGenerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, amp, alpha float64, wavenumber int, ne uint8) {
		s := Spec{Kind: Kind(kind % 4), Amp: amp, Alpha: alpha, Wavenumber: wavenumber}
		m := mustMesh(t, 1+int(ne)%24)
		if i := firstDiff(s.Generate(m), trigGenerate(s, m)); i >= 0 {
			t.Fatalf("%+v on Ne=%d: element %d differs from the trig reference", s, m.Ne(), i)
		}
	})
}

func TestInt32Conversion(t *testing.T) {
	got, err := Int32([]int64{0, 1, math.MaxInt32})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, math.MaxInt32}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Int32 = %v, want %v", got, want)
	}
	if _, err := Int32([]int64{math.MaxInt32 + 1}); err == nil {
		t.Fatal("Int32 accepted an overflowing weight")
	}
	if _, err := Int32([]int64{-1}); err == nil {
		t.Fatal("Int32 accepted a negative weight")
	}
	if w, err := Int32(nil); err != nil || w != nil {
		t.Fatalf("Int32(nil) = %v, %v, want nil, nil", w, err)
	}
}

// generated keeps BenchmarkGenerate's result live.
var generated []int64

// BenchmarkGenerate times the weights stage of a weighted request: one
// weight per element, for the default cfl proxy and the hv spec the
// service benchmarks send.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct{ name, spec string }{{"cfl", "cfl"}, {"hv", "hv:amp=16,m=6"}} {
		s, err := Parse(c.spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, ne := range []int{32, 128, 384} {
			m := mustMesh(b, ne)
			b.Run(fmt.Sprintf("%s/Ne%d", c.name, ne), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					generated = s.Generate(m)
				}
			})
		}
	}
}
