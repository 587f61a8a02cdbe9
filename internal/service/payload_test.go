package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

const payloadHashFile = "testdata/payload_sha256.json"

// payloadCase is one request of TestPayloadBytesPinned's matrix; large
// selects the service whose large regime starts at Ne=32.
type payloadCase struct {
	name  string
	req   Request
	large bool
}

// payloadMatrix is every ladder entry point × three sizes × uniform/weighted
// on a default service, plus the Ne=48 rows again through the large regime.
func payloadMatrix() []payloadCase {
	seed := int64(1)
	anyLB := -1.0
	var cases []payloadCase
	for _, large := range []bool{false, true} {
		for _, method := range []string{"auto", "kway", "rb", "sfc", "serpentine"} {
			for _, size := range [][2]int{{4, 8}, {16, 64}, {48, 96}} {
				for _, spec := range []string{"", "cfl"} {
					if large && size[0] < 32 {
						continue // identical to the default service below LargeNe
					}
					req := Request{Ne: size[0], NParts: size[1], Method: method, Seed: &seed, WeightsSpec: spec}
					if spec != "" {
						req.MaxLB = &anyLB // weighted curve cuts are not count-balanced
					}
					name := fmt.Sprintf("large=%v/%s/ne%d/p%d/w=%s", large, method, size[0], size[1], spec)
					cases = append(cases, payloadCase{name, req, large})
				}
			}
		}
	}
	return cases
}

// TestPayloadBytesPinned holds the service to the exact response bytes it
// produced before stats moved off the CSR graph (hashes recorded on that
// commit; SFCCUBE_RECORD_PAYLOADS=1 re-records). Any change to a partition,
// a stat or the encoding shows up here.
func TestPayloadBytesPinned(t *testing.T) {
	svcs := map[bool]*Service{
		false: newTestService(t, Config{}),
		true:  newTestService(t, Config{LargeNe: 32}),
	}
	got := map[string]string{}
	for _, c := range payloadMatrix() {
		payload, _, err := svcs[c.large].Partition(context.Background(), c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.Sum256(payload)
		got[c.name] = hex.EncodeToString(h[:])
	}
	if os.Getenv("SFCCUBE_RECORD_PAYLOADS") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(payloadHashFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(payloadHashFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded payload hashes, matrix has %d", len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: payload sha256 %s, recorded %s", name, h, want[name])
		}
	}
}
