package supervise

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode asserts the decode contract on arbitrary input:
// DecodeCheckpoint never panics, every failure is a typed *CorruptError,
// and every success is internally consistent (slab lengths match the
// header's element/point counts). The checked-in corpus under
// testdata/fuzz/FuzzCheckpointDecode holds a valid checkpoint plus
// truncated, bit-flipped and adversarial-header variants.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed a real (tiny) checkpoint and systematic corruptions of it, so
	// the fuzzer starts from the interesting part of the input space even
	// before the on-disk corpus is loaded.
	sw, dt := testSW(f, 2, 3)
	valid := EncodeCheckpoint(sw, 3, dt)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:ckptHeader])
	flipped := append([]byte(nil), valid...)
	flipped[ckptHeader+5] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("SFCK"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error %v is not a *CorruptError", err)
			}
			if ck != nil {
				t.Fatal("non-nil checkpoint returned with error")
			}
			return
		}
		n := ck.NElems * ck.Npts
		if len(ck.V1) != n || len(ck.V2) != n || len(ck.Phi) != n {
			t.Fatalf("decoded slab lengths %d/%d/%d for %d elements x %d points",
				len(ck.V1), len(ck.V2), len(ck.Phi), ck.NElems, ck.Npts)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus. It is a
// no-op unless WRITE_FUZZ_CORPUS is set, and exists so the corpus files'
// provenance is reproducible:
//
//	WRITE_FUZZ_CORPUS=1 go test ./internal/seam/supervise -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz corpus")
	}
	sw, dt := testSW(t, 2, 3)
	valid := EncodeCheckpoint(sw, 7, dt)
	truncated := valid[:len(valid)/3]
	bitflip := append([]byte(nil), valid...)
	bitflip[ckptHeader+17] ^= 0x04 // payload corruption the CRC must catch
	crcflip := append([]byte(nil), valid...)
	crcflip[len(crcflip)-2] ^= 0x80 // trailer corruption
	badmagic := append([]byte(nil), valid...)
	copy(badmagic, "KCFS")
	hugehdr := append([]byte(nil), valid...)
	for i := 24; i < 32; i++ {
		hugehdr[i] = 0xff // nelems*npts overflows naive 32-bit size math
	}
	entries := map[string][]byte{
		"valid":      valid,
		"truncated":  truncated,
		"bitflip":    bitflip,
		"crcflip":    crcflip,
		"badmagic":   badmagic,
		"hugeheader": hugehdr,
		"headeronly": valid[:ckptHeader],
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
