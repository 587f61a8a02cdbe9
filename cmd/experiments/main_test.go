package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sfccube/internal/experiments"
)

// committedTwin maps an artifact file name to the checked-in file it must
// equal. The golden suites are held against the check package's goldens
// themselves, so there is no second copy under out/ to keep in step.
func committedTwin(name string) string {
	switch name {
	case "golden-metrics.json":
		return filepath.Join("..", "..", "internal", "check", "testdata", "golden", "metrics.json")
	case "golden-amr.json":
		return filepath.Join("..", "..", "internal", "check", "testdata", "golden", "amr.json")
	}
	return filepath.Join("..", "..", "out", name)
}

// TestArtifactsMatchOut regenerates every artifact of -run all and holds
// each byte for byte against its committed twin: the published tables and
// figures are what the code computes today. A change that moves an
// experiment output regenerates out/ (see TESTING.md).
func TestArtifactsMatchOut(t *testing.T) {
	dir := t.TempDir()
	if err := runAll("all", dir, 1, experiments.DefaultWeightSpec); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) == 0 {
		t.Fatal("-run all wrote no artifacts")
	}
	for _, f := range written {
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		twin := committedTwin(f.Name())
		want, err := os.ReadFile(twin)
		if err != nil {
			t.Errorf("%s has no committed twin: %v", f.Name(), err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s; regenerate with: go run ./cmd/experiments -run all -out out/", f.Name(), twin)
		}
	}
}
