package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunReproducesPinnedAssignments: for every method name, the partition
// run saves hashes to the value recorded on the pre-method-table commit (the
// uniform Ne=8, 24-part rows of internal/core/testdata/assignments.json; see
// core.TestPinnedAssignments for the format).
func TestRunReproducesPinnedAssignments(t *testing.T) {
	b, err := os.ReadFile("../../internal/core/testdata/assignments.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned []struct {
		Ne, NParts              int
		Seed                    int64
		Weights, Method, SHA256 string
	}
	if err := json.Unmarshal(b, &pinned); err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, c := range pinned {
		if c.Ne != 8 || c.Weights != "uniform" {
			continue
		}
		ran++
		path := filepath.Join(t.TempDir(), c.Method+".part")
		if err := run(c.Ne, c.NParts, c.Method, "peano-first", c.Seed, false, path); err != nil {
			t.Fatalf("%s: %v", c.Method, err)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// "nvertices nparts" then one part index per line.
		fields := strings.Fields(string(text))
		k := 6 * c.Ne * c.Ne
		if len(fields) != 2+k || fields[0] != strconv.Itoa(k) || fields[1] != strconv.Itoa(c.NParts) {
			t.Fatalf("%s: saved file is not \"%d %d\" followed by %d part indices", c.Method, k, c.NParts, k)
		}
		raw := make([]byte, 4*(len(fields)-2))
		for i, s := range fields[2:] {
			v, err := strconv.Atoi(s)
			if err != nil {
				t.Fatalf("%s: %v", c.Method, err)
			}
			binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
		}
		if h := sha256.Sum256(raw); hex.EncodeToString(h[:]) != c.SHA256 {
			t.Errorf("%s: saved partition hashes to %x, want %s", c.Method, h, c.SHA256)
		}
	}
	if ran != 5 {
		t.Fatalf("ran %d pinned cases, want 5", ran)
	}
	if err := run(8, 24, "bogus", "peano-first", 1, false, ""); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run(8, 24, "sfc", "bogus", 1, false, ""); err == nil {
		t.Error("unknown order accepted")
	}
}
