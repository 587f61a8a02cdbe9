package seam

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"sfccube/internal/mesh"
)

const stateHashFile = "testdata/state_sha256.json"

// hashSlabs is the SHA-256 of the slabs' float64 bits, little-endian, in
// argument order.
func hashSlabs(slabs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range slabs {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinSolver is rotated Williamson 2 (alpha = pi/4, rotation axis tilted with
// the flow) at polynomial degree 7, the benchmark's configuration.
func pinSolver(t *testing.T, ne int) (*ShallowWater, float64) {
	t.Helper()
	g := testGrid(t, ne, 7)
	alpha := math.Pi / 4
	if err := g.SetRotationAxis(mesh.Vec3{X: math.Sin(alpha), Y: 0, Z: math.Cos(alpha)}); err != nil {
		t.Fatal(err)
	}
	sw, err := NewShallowWater(g)
	if err != nil {
		t.Fatal(err)
	}
	wind, phi := Williamson2Rotated(g.Radius, g.Omega, 40, 2.94e4, alpha)
	sw.SetState(wind, phi)
	return sw, sw.MaxStableDt(0.3)
}

// TestStatePinned holds the solver to the exact state bits it produced while
// every field still had a [][] view beside its slab (hashes recorded on that
// commit; SFCCUBE_RECORD_STATES=1 re-records): the sequential Step, the
// Runner at two rank counts and two worker counts, one hyperviscosity pass,
// and the advection tracer. The Runner-vs-Step tests cannot see a change that
// moves both alike; this one can.
func TestStatePinned(t *testing.T) {
	got := map[string]string{}
	for _, c := range []struct{ ne, steps int }{{4, 6}, {8, 4}} {
		sw, dt := pinSolver(t, c.ne)
		for s := 0; s < c.steps; s++ {
			sw.Step(dt)
		}
		got[fmt.Sprintf("ne%d/seq", c.ne)] = hashSlabs(sw.StateSlabs())
		sw.ApplyHyperviscosity(dt, sw.StableHyperviscosity(dt))
		got[fmt.Sprintf("ne%d/hyperviscosity", c.ne)] = hashSlabs(sw.StateSlabs())

		for _, nranks := range []int{24, 6 * c.ne * c.ne} {
			assign := methodAssign(t, "sfc", c.ne, nranks)
			for _, workers := range []int{1, 2} {
				sw, dt := pinSolver(t, c.ne)
				r, err := NewRunner(sw, assign, nranks)
				if err != nil {
					t.Fatal(err)
				}
				r.Workers = workers
				r.Run(c.steps, dt)
				got[fmt.Sprintf("ne%d/runner/ranks=%d/workers=%d", c.ne, nranks, workers)] = hashSlabs(sw.StateSlabs())
			}
		}

		g := testGrid(t, c.ne, 7)
		adv := NewAdvection(g, mesh.Vec3{X: 3e-5, Y: 0, Z: 6e-5})
		adv.SetTracer(gaussianHill(mesh.Vec3{X: g.Radius}, g.Radius))
		adt := adv.MaxStableDt(0.5)
		for s := 0; s < c.steps; s++ {
			adv.Step(adt)
		}
		got[fmt.Sprintf("ne%d/advection", c.ne)] = hashSlabs(adv.Q)
	}

	if os.Getenv("SFCCUBE_RECORD_STATES") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stateHashFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(stateHashFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded state hashes, test computes %d", len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: state sha256 %s, recorded %s", name, h, want[name])
		}
	}
}
