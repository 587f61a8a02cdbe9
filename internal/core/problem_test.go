package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/core"
	"sfccube/internal/experiments"
	"sfccube/internal/resilience"
	"sfccube/internal/service"
)

// pinned is one row of testdata/assignments.json: the SHA-256 of the
// assignment (little-endian int32s) each method produced through the entry
// points that existed before the method table — core.PartitionCubedSphere,
// a serpentine-only fallback chain, metis.Partition on a hand-built graph.
type pinned struct {
	Ne      int    `json:"ne"`
	NParts  int    `json:"nparts"`
	Seed    int64  `json:"seed"`
	Weights string `json:"weights"`
	Method  string `json:"method"`
	SHA256  string `json:"sha256"`
}

func (c pinned) String() string {
	return fmt.Sprintf("%s/ne%d/p%d/%s", c.Method, c.Ne, c.NParts, c.Weights)
}

func loadPinned(t *testing.T) []pinned {
	t.Helper()
	b, err := os.ReadFile("testdata/assignments.json")
	if err != nil {
		t.Fatal(err)
	}
	var out []pinned
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("%d pinned assignments, want 5 methods x 2 weightings x 2 sizes", len(out))
	}
	return out
}

func sha(assign []int32) string {
	b := make([]byte, 4*len(assign))
	for i, v := range assign {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func newProblem(t *testing.T, ne int, spec string) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(ne)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetWeightSpec(spec); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPinnedAssignments is the byte-identity gate of the one-pipeline
// refactor: the method table, the fallback chain, the service and the
// experiments harness must each reproduce, for the same method name, the
// assignment recorded on the pre-refactor commit.
func TestPinnedAssignments(t *testing.T) {
	svc := service.NewService(service.Config{})
	for _, c := range loadPinned(t) {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			want := c.SHA256
			p, err := core.Run(context.Background(), c.Method, newProblem(t, c.Ne, c.Weights), c.NParts, c.Seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(p.Assignment()); got != want {
				t.Errorf("method table: %s, want %s", got, want)
			}

			spec := resilience.NewFallbackSpec(c.Ne, c.NParts)
			spec.Seed, spec.MaxLB = c.Seed, -1
			spec.Chain = []resilience.Strategy{resilience.Strategy(strings.ToUpper(c.Method))}
			spec.Weights = newProblem(t, c.Ne, c.Weights).Weights()
			res, err := resilience.PartitionWithFallback(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(res.Partition.Assignment()); got != want {
				t.Errorf("PartitionWithFallback: %s, want %s", got, want)
			}

			setup, err := experiments.NewWeightedSetup(c.Ne, c.Weights)
			if err != nil {
				t.Fatal(err)
			}
			p, err = setup.Partition(strings.ToUpper(c.Method), c.NParts, c.Seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(p.Assignment()); got != want {
				t.Errorf("experiments: %s, want %s", got, want)
			}

			if c.Method == "tv" {
				return // the wire protocol serves tv with kway; see the service tests
			}
			anyLB := -1.0
			payload, _, err := svc.Partition(context.Background(), service.Request{
				Ne: c.Ne, NParts: c.NParts, Method: c.Method, Seed: &c.Seed, MaxLB: &anyLB, WeightsSpec: c.Weights,
			})
			if err != nil {
				t.Fatal(err)
			}
			var resp service.Response
			if err := json.Unmarshal(payload, &resp); err != nil {
				t.Fatal(err)
			}
			if got := sha(resp.Assignment); got != want || resp.Strategy != strings.ToUpper(c.Method) {
				t.Errorf("service (%s): %s, want %s", resp.Strategy, got, want)
			}
		})
	}
}

// TestEveryMethodValid: every table entry yields an oracle-valid partition
// on power-of-two, unfactorable and mixed sizes — except sfc at Ne=5, which
// must fail typed, both directly and through the chain.
func TestEveryMethodValid(t *testing.T) {
	for _, ne := range []int{4, 5, 8} {
		prob := newProblem(t, ne, "uniform")
		g, err := prob.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.Methods {
			p, err := m.Run(context.Background(), prob, 2*ne, 1, nil)
			if m.Name == "sfc" && ne == 5 {
				var ne5 *core.NeError
				if !errors.As(err, &ne5) || ne5.Ne != 5 {
					t.Errorf("sfc at Ne=5: %v, want *core.NeError", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s at Ne=%d: %v", m.Name, ne, err)
			}
			if err := check.ValidatePartition(g, p); err != nil {
				t.Errorf("%s at Ne=%d: %v", m.Name, ne, err)
			}
		}
	}
	spec := resilience.NewFallbackSpec(5, 10)
	spec.Chain = []resilience.Strategy{resilience.StrategySFC}
	_, err := resilience.PartitionWithFallback(context.Background(), spec)
	var ex *resilience.ExhaustedError
	var une *resilience.UnsupportedNeError
	if !errors.As(err, &ex) || len(ex.Attempts) != 1 || !errors.As(ex.Attempts[0].Err, &une) || une.Ne != 5 {
		t.Errorf("sfc-only chain at Ne=5: %v, want one *resilience.UnsupportedNeError attempt", err)
	}
}

func TestLookupMethod(t *testing.T) {
	for name, want := range map[string]string{
		"sfc": "sfc", "SFC": "sfc", "Serpentine": "serpentine", "serp": "serpentine",
		"rb": "rb", "KWAY": "kway", "metis": "kway", "TV": "tv",
	} {
		if m, ok := core.LookupMethod(name); !ok || m.Name != want {
			t.Errorf("LookupMethod(%q) = %q, %v; want %q", name, m.Name, ok, want)
		}
	}
	for _, name := range []string{"", "auto", "block", "kway "} {
		if _, ok := core.LookupMethod(name); ok {
			t.Errorf("LookupMethod(%q) succeeded", name)
		}
	}
	for _, m := range core.Methods {
		if seeded := m.Name == "rb" || m.Name == "kway" || m.Name == "tv"; m.Seeded != seeded {
			t.Errorf("%s: Seeded = %v", m.Name, m.Seeded)
		}
	}
}

// TestProblemMemoises: running curve and graph methods on one Problem builds
// each derived structure once — the second mesh build the SFC chain link used
// to pay and the per-link weight install are gone — including under the
// concurrent readers the experiment sweeps have.
func TestProblemMemoises(t *testing.T) {
	prob := newProblem(t, 8, "cfl")
	m := prob.Mesh()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, name := range []string{"sfc", "serpentine", "kway"} {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := core.Run(context.Background(), name, prob, 24, 1, nil); err != nil {
					t.Error(err)
				}
			}(name)
		}
	}
	wg.Wait()
	if prob.Mesh() != m {
		t.Error("mesh pointer changed")
	}
	g1, _ := prob.Graph()
	g2, _ := prob.Graph()
	c1, _ := prob.Curve()
	c2, _ := prob.Curve()
	s1, _ := prob.Serpentine()
	s2, _ := prob.Serpentine()
	if g1 == nil || g1 != g2 || c1 == nil || c1 != c2 || s1 == nil || s1 != s2 {
		t.Error("second request did not return the memoised graph/curve")
	}
	if c1.Len() != m.NumElems() || s1.Len() != m.NumElems() {
		t.Error("curves do not cover the problem's mesh")
	}
	for v, w := range prob.Weights() {
		if int64(g1.VertexWeight(v)) != w {
			t.Fatalf("vertex %d weight %d, want %d", v, g1.VertexWeight(v), w)
		}
	}

	// A caller-provided graph is adopted, not rebuilt.
	from, err := core.ProblemFrom(8, m, g1)
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := from.Graph(); g != g1 || from.Mesh() != m {
		t.Error("ProblemFrom rebuilt its inputs")
	}
}

// TestMultilevelWeightRange: a weight the int32 vertex weights cannot hold
// fails every multilevel method with weights.Int32's error, the one the
// graph build returned before the finest level was streamed.
func TestMultilevelWeightRange(t *testing.T) {
	prob, err := core.NewProblem(2)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]int64, prob.Mesh().NumElems())
	for i := range w {
		w[i] = 1
	}
	w[5] = math.MaxInt32 + 1
	if err := prob.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	const want = "weights: weight 2147483648 at position 5 outside int32 range"
	for _, name := range []string{"rb", "kway", "tv"} {
		if _, err := core.Run(context.Background(), name, prob, 4, 1, nil); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}
