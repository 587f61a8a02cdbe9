package metis_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"sfccube/internal/core"
)

// TestPinnedAssignmentsPoisoned recomputes every multilevel row of
// internal/core/testdata/assignments.json through the method table with the
// poison hook on (TestMain in arena_test.go), at GOMAXPROCS 1, 2 and 4: a
// frame that read popped arena memory, on any fan-out shape, changes a hash.
func TestPinnedAssignmentsPoisoned(t *testing.T) {
	b, err := os.ReadFile("../core/testdata/assignments.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Ne, NParts              int
		Seed                    int64
		Weights, Method, SHA256 string
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ran := 0
	for _, c := range rows {
		if c.Method != "rb" && c.Method != "kway" && c.Method != "tv" {
			continue
		}
		ran++
		prob, err := core.NewProblem(c.Ne)
		if err != nil {
			t.Fatal(err)
		}
		if err := prob.SetWeightSpec(c.Weights); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			p, err := core.Run(context.Background(), c.Method, prob, c.NParts, c.Seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, 4*p.NumVertices())
			for _, v := range p.Assignment() {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
			h := sha256.Sum256(buf)
			if got := hex.EncodeToString(h[:]); got != c.SHA256 {
				t.Errorf("%s/ne%d/p%d/%s at GOMAXPROCS=%d: %s, want %s", c.Method, c.Ne, c.NParts, c.Weights, procs, got, c.SHA256)
			}
		}
	}
	if ran != 12 {
		t.Fatalf("%d multilevel rows in assignments.json, want 3 methods x 2 weightings x 2 sizes", ran)
	}
}
