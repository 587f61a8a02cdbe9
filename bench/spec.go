package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single declaration of workload and metric
// names. The driver emits values under these names only, and bench_test.go
// fails when the code and the file disagree.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRepoRoot returns the nearest directory at or above the working
// directory that holds BENCHMARK.json (the binary is started from the
// checkout root by run.sh and from bench/ by `go run .` and `go test`).
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

func loadSpec(repoRoot string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) units() map[string]string {
	u := make(map[string]string, len(s.EndToEnd)+len(s.PerLayer))
	for _, m := range s.EndToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		u[m.Name] = m.Unit
	}
	return u
}
