package partition

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"
)

// scanPartition reads WriteTo's output the way a METIS-format consumer
// would: whitespace-separated integers, header first.
func scanPartition(r io.Reader) (nparts int, assign []int32, err error) {
	var nv int
	if _, err = fmt.Fscan(r, &nv, &nparts); err != nil {
		return 0, nil, err
	}
	assign = make([]int32, nv)
	for i := range assign {
		if _, err = fmt.Fscan(r, &assign[i]); err != nil {
			return 0, nil, err
		}
	}
	return nparts, assign, nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	p, _ := FromAssignment([]int32{0, 2, 1, 1, 0, 2}, 3)
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const want = "6 3\n0\n2\n1\n1\n0\n2\n"
	if buf.String() != want || n != int64(len(want)) {
		t.Fatalf("wrote %q (%d bytes), want %q", buf.String(), n, want)
	}
	nparts, assign, err := scanPartition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nparts != 3 || len(assign) != 6 {
		t.Fatalf("shape wrong after round trip")
	}
	for v := 0; v < 6; v++ {
		if int(assign[v]) != p.Part(v) {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

// Property: round trip preserves arbitrary valid partitions.
func TestIORoundTripProperty(t *testing.T) {
	f := func(raw []uint8, rawParts uint8) bool {
		if len(raw) == 0 {
			return true
		}
		nparts := 1 + int(rawParts)%8
		assign := make([]int32, len(raw))
		for i, v := range raw {
			assign[i] = int32(int(v) % nparts)
		}
		p, err := FromAssignment(assign, nparts)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			return false
		}
		gotParts, got, err := scanPartition(&buf)
		if err != nil || gotParts != nparts || len(got) != len(assign) {
			return false
		}
		for v := range assign {
			if int(got[v]) != p.Part(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
