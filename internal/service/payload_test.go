package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

const (
	payloadHashFile = "testdata/payload_sha256.json"
	streamHashFile  = "testdata/stream_sha256.json"
)

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
	checkPinned(t, payloadHashFile, got)
}

// postStream answers req on /v1/partition/stream through the full handler and
// returns the NDJSON body and the X-Partsrv-Cache header.
func postStream(t *testing.T, h http.Handler, req Request) ([]byte, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition/stream", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), rec.Header().Get("X-Partsrv-Cache")
}

// TestStreamBytesPinned holds /v1/partition/stream to the exact NDJSON bytes
// it sent while every request still decoded the cached document and printed
// it again (hashes recorded on that commit; SFCCUBE_RECORD_PAYLOADS=1
// re-records): the payload matrix plus a ragged two-chunk body (Ne=64,
// K = 1.5 chunks) and an exact-multiple six-chunk one (Ne=128, K = 6 chunks).
// Each request is sent twice; the miss and the hit must be the same bytes.
func TestStreamBytesPinned(t *testing.T) {
	anyLB := -1.0
	cases := append(payloadMatrix(),
		payloadCase{"ragged/sfc/ne64/p96", Request{Ne: 64, NParts: 96, Method: "sfc"}, false},
		payloadCase{"exact/sfc/ne128/p1000/w=cfl", Request{Ne: 128, NParts: 1000, Method: "sfc", MaxLB: &anyLB, WeightsSpec: "cfl"}, false},
	)
	handlers := map[bool]http.Handler{
		false: newTestService(t, Config{}).Handler(),
		true:  newTestService(t, Config{LargeNe: 32}).Handler(),
	}
	got := map[string]string{}
	for _, c := range cases {
		miss, state := postStream(t, handlers[c.large], c.req)
		if state != "miss" {
			t.Fatalf("%s: first request was a cache %s", c.name, state)
		}
		hit, state := postStream(t, handlers[c.large], c.req)
		if state != "hit" {
			t.Fatalf("%s: second request was a cache %s", c.name, state)
		}
		if !bytes.Equal(miss, hit) {
			t.Errorf("%s: stream body differs between miss and hit", c.name)
		}
		if n, want := bytes.Count(hit, []byte("\n")), 1+(6*c.req.Ne*c.req.Ne+streamChunk-1)/streamChunk; n != want {
			t.Errorf("%s: %d NDJSON lines, want %d", c.name, n, want)
		}
		h := sha256.Sum256(hit)
		got[c.name] = hex.EncodeToString(h[:])
	}
	checkPinned(t, streamHashFile, got)
}

// checkPinned compares got with the hashes recorded in file, or rewrites the
// file when SFCCUBE_RECORD_PAYLOADS is set.
func checkPinned(t *testing.T, file string, got map[string]string) {
	t.Helper()
	if os.Getenv("SFCCUBE_RECORD_PAYLOADS") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d recorded hashes, matrix has %d", file, len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: sha256 %s, recorded %s", name, h, want[name])
		}
	}
}
