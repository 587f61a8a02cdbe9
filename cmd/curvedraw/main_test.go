package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestRenderGolden pins the curves at the surface a user sees them: the ASCII
// visit orders of figures 2, 4 and 5 and the SHA-256 of the figure-6 SVG
// (which draws the cube curve through mesh.ElemCenter, so it moves with either
// the D4 algebra or the face gluing). To re-record after an intended change:
//
//	go run ./cmd/curvedraw -fig N > cmd/curvedraw/testdata/figN.txt
//	go run ./cmd/curvedraw -fig 6 -o f.svg && sha256sum f.svg   # into fig6.svg.sha256
func TestRenderGolden(t *testing.T) {
	for _, fig := range []int{2, 4, 5} {
		_, ascii, err := render(fig, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(fmt.Sprintf("testdata/fig%d.txt", fig))
		if err != nil {
			t.Fatal(err)
		}
		if ascii != string(want) {
			t.Errorf("figure %d ASCII changed:\n%s\nrecorded:\n%s", fig, ascii, want)
		}
	}
	svg, _, err := render(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig6.svg.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(svg))
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Errorf("figure 6 SVG sha256 %s, recorded %s", got, strings.TrimSpace(string(want)))
	}
}
