package service

import (
	"context"
	"errors"
	"testing"

	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/weights"
)

// TestWeightsSpecCanonicalization pins the cache-key contract of
// weights_spec: equivalent spellings share one content address, the uniform
// spellings collapse onto the absent form, and distinct specs get distinct
// keys.
func TestWeightsSpecCanonicalization(t *testing.T) {
	s := newTestService(t, Config{})
	key := func(spec string) string {
		t.Helper()
		canon, err := s.canonicalize(Request{Ne: 8, NParts: 16, Method: "sfc", WeightsSpec: spec})
		if err != nil {
			t.Fatalf("weights_spec %q: %v", spec, err)
		}
		return canon.key()
	}
	if key("hv") != key("hyperviscosity:amp=8") {
		t.Error("equivalent hv spellings produce different cache keys")
	}
	if key("") != key("uniform") {
		t.Error("absent and explicit uniform produce different cache keys")
	}
	if key("cfl") == key("hv") {
		t.Error("distinct specs share a cache key")
	}
	if key("cfl") == key("") {
		t.Error("weighted and uniform requests share a cache key")
	}
	canon, err := s.canonicalize(Request{Ne: 8, NParts: 16, Method: "sfc", WeightsSpec: "Hyperviscosity:amp=8"})
	if err != nil {
		t.Fatal(err)
	}
	if canon.Weights != "hv" {
		t.Errorf("canonical spelling = %q, want \"hv\"", canon.Weights)
	}
}

func TestWeightsSpecValidation(t *testing.T) {
	s := newTestService(t, Config{})
	for _, spec := range []string{"nosuch", "cfl:amp=0", "hv:m=999", "uniform:amp=2"} {
		_, _, err := s.Partition(context.Background(), Request{Ne: 8, NParts: 16, WeightsSpec: spec})
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Errorf("weights_spec %q: got %v, want *BadRequestError", spec, err)
		}
	}
}

// TestWeightedPartitionResponse checks the weighted answer end-to-end: the
// canonical spec is echoed, the per-part weight totals agree with an
// independent recomputation from the assignment, and the weighted balance is
// the equation-(1) value over those totals.
func TestWeightedPartitionResponse(t *testing.T) {
	s := newTestService(t, Config{})
	payload, _, err := s.Partition(context.Background(),
		Request{Ne: 8, NParts: 16, Method: "sfc", WeightsSpec: "cfl:amp=16"})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, payload)
	if resp.WeightsSpec != "cfl:amp=16" {
		t.Errorf("response weights_spec = %q, want \"cfl:amp=16\"", resp.WeightsSpec)
	}
	validate(t, resp)
	if len(resp.Stats.PartWeights) != resp.NParts {
		t.Fatalf("response has %d part weights, want %d", len(resp.Stats.PartWeights), resp.NParts)
	}

	m, err := mesh.New(resp.Ne)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := weights.Parse(resp.WeightsSpec)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Generate(m)
	partWeights := make([]int64, resp.NParts)
	for e, p := range resp.Assignment {
		partWeights[p] += w[e]
	}
	for q, got := range resp.Stats.PartWeights {
		if got != partWeights[q] {
			t.Fatalf("part %d weight %d, independent recomputation %d", q, got, partWeights[q])
		}
	}
	if want := partition.LoadBalance(partWeights); resp.Stats.LBWeighted != want {
		t.Errorf("LBWeighted = %g, recomputed %g", resp.Stats.LBWeighted, want)
	}
}

// TestDefaultWeightsConfig covers the partsrv -weights server default: a
// request without a spec inherits it, and an explicit "uniform" overrides it
// back to unit cost.
func TestDefaultWeightsConfig(t *testing.T) {
	s := newTestService(t, Config{DefaultWeights: "cfl"})
	payload, _, err := s.Partition(context.Background(), Request{Ne: 8, NParts: 16, Method: "sfc"})
	if err != nil {
		t.Fatal(err)
	}
	if resp := decodeResponse(t, payload); resp.WeightsSpec != "cfl" {
		t.Errorf("default-weighted response weights_spec = %q, want \"cfl\"", resp.WeightsSpec)
	}
	payload, _, err = s.Partition(context.Background(),
		Request{Ne: 8, NParts: 16, Method: "sfc", WeightsSpec: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, payload)
	if resp.WeightsSpec != "" {
		t.Errorf("explicit uniform response weights_spec = %q, want absent", resp.WeightsSpec)
	}
	if resp.Stats.PartWeights != nil {
		t.Error("uniform response carries part weights")
	}
}
