package supervise

import (
	"errors"
	"math"
	"testing"

	"sfccube/internal/core"
	"sfccube/internal/seam"
)

// testSW builds a small Williamson-2 shallow-water state.
func testSW(tb testing.TB, ne, degree int) (*seam.ShallowWater, float64) {
	tb.Helper()
	g, err := seam.NewGrid(ne, degree, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		tb.Fatal(err)
	}
	sw, err := seam.NewShallowWater(g)
	if err != nil {
		tb.Fatal(err)
	}
	u0 := 2 * math.Pi * g.Radius / (12 * 86400)
	wind, phi := seam.Williamson2(g.Radius, g.Omega, u0, 2.94e4)
	sw.SetState(wind, phi)
	return sw, sw.MaxStableDt(0.4)
}

// sfcAssign is the paper's SFC partition for the test grid.
func sfcAssign(tb testing.TB, ne, ranks int) []int32 {
	tb.Helper()
	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: ranks})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Partition.Assignment()
}

func snapshotSlabs(sw *seam.ShallowWater) [3][]float64 {
	v1, v2, phi := sw.StateSlabs()
	return [3][]float64{
		append([]float64(nil), v1...),
		append([]float64(nil), v2...),
		append([]float64(nil), phi...),
	}
}

// requireSlabsBitwise compares two slab snapshots as raw bit patterns.
func requireSlabsBitwise(t *testing.T, a, b [3][]float64, label string) {
	t.Helper()
	names := [3]string{"v1", "v2", "phi"}
	for f := range a {
		if len(a[f]) != len(b[f]) {
			t.Fatalf("%s: %s length %d vs %d", label, names[f], len(a[f]), len(b[f]))
		}
		for i := range a[f] {
			if math.Float64bits(a[f][i]) != math.Float64bits(b[f][i]) {
				t.Fatalf("%s: %s differs at %d: %v vs %v", label, names[f], i, a[f][i], b[f][i])
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	sw, dt := testSW(t, 2, 3)
	for i := 0; i < 3; i++ {
		sw.Step(dt)
	}
	want := snapshotSlabs(sw)
	data := EncodeCheckpoint(sw, 3, dt)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 3 || ck.Dt != dt {
		t.Errorf("decoded step %d dt %v, want 3 %v", ck.Step, ck.Dt, dt)
	}
	if ck.NElems != sw.G.NumElems() || ck.Npts != sw.G.PointsPerElem() {
		t.Errorf("decoded shape %dx%d, want %dx%d", ck.NElems, ck.Npts, sw.G.NumElems(), sw.G.PointsPerElem())
	}
	requireSlabsBitwise(t, [3][]float64{ck.V1, ck.V2, ck.Phi}, want, "decode")

	// Scribble over the live state, restore, and compare bitwise.
	v1, v2, phi := sw.StateSlabs()
	for i := range v1 {
		v1[i], v2[i], phi[i] = -1, 2, math.NaN()
	}
	if err := ck.Restore(sw); err != nil {
		t.Fatal(err)
	}
	requireSlabsBitwise(t, snapshotSlabs(sw), want, "restore")
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	sw, dt := testSW(t, 2, 3)
	data := EncodeCheckpoint(sw, 5, dt)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": data[:len(data)/2],
		"one byte short": func() []byte {
			return append([]byte(nil), data[:len(data)-1]...)
		}(),
	}
	// A flip of any single bit — header, payload or trailer — must be caught.
	for _, bit := range []int{0, 37, 8*ckptHeader + 11, 8*len(data) - 3} {
		cp := append([]byte(nil), data...)
		cp[bit/8] ^= 1 << (bit % 8)
		cases["bitflip@"+string(rune('0'+bit%10))] = cp
	}
	// Adversarial header: element count chosen to overflow naive size math.
	huge := append([]byte(nil), data...)
	for i := 24; i < 32; i++ {
		huge[i] = 0xff
	}
	cases["huge header"] = huge

	for name, input := range cases {
		_, err := DecodeCheckpoint(input)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want *CorruptError", name, err)
		}
	}

	// The untouched original must still decode.
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	sw, dt := testSW(t, 2, 3)
	other, _ := testSW(t, 2, 4) // different polynomial degree
	ck, err := DecodeCheckpoint(EncodeCheckpoint(sw, 1, dt))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(other); err == nil {
		t.Error("restore into a different grid shape accepted")
	}
}

func TestStoreTwoSlotFallback(t *testing.T) {
	sw, dt := testSW(t, 2, 3)
	stores := map[string]*Store{
		"mem":  NewMemStore(),
		"file": mustFileStore(t),
	}
	for name, st := range stores {
		t.Run(name, func(t *testing.T) {
			if _, _, err := st.Load(); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("empty store Load: %v, want ErrNoCheckpoint", err)
			}
			if err := st.Save(EncodeCheckpoint(sw, 1, dt)); err != nil {
				t.Fatal(err)
			}
			sw.Step(dt)
			if err := st.Save(EncodeCheckpoint(sw, 2, dt)); err != nil {
				t.Fatal(err)
			}
			ck, skipped, err := st.Load()
			if err != nil || skipped != 0 || ck.Step != 2 {
				t.Fatalf("Load = step %v skipped %d err %v, want step 2", ck, skipped, err)
			}
			// Corrupt the newest slot: Load must fall back to step 1.
			if err := st.Corrupt(12345); err != nil {
				t.Fatal(err)
			}
			ck, skipped, err = st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if ck.Step != 1 || skipped != 1 {
				t.Errorf("after corruption Load = step %d skipped %d, want step 1 skipped 1", ck.Step, skipped)
			}
		})
	}
}

func mustFileStore(t *testing.T) *Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFileStoreRestart: a new FileStore over an existing directory resumes
// the slot rotation and serves the newest checkpoint.
func TestFileStoreRestart(t *testing.T) {
	sw, dt := testSW(t, 2, 3)
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(EncodeCheckpoint(sw, 1, dt)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(EncodeCheckpoint(sw, 2, dt)); err != nil {
		t.Fatal(err)
	}

	// "Process restart": reopen the directory.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := fs2.Load()
	if err != nil || ck.Step != 2 {
		t.Fatalf("reopened Load = %v, %v; want step 2", ck, err)
	}
	// The next Save must overwrite the older slot, not the newest.
	if err := fs2.Save(EncodeCheckpoint(sw, 3, dt)); err != nil {
		t.Fatal(err)
	}
	ck, _, err = fs2.Load()
	if err != nil || ck.Step != 3 {
		t.Fatalf("Load after rotated Save = %v, %v; want step 3", ck, err)
	}
	if ck2, _, _ := fs2.Load(); ck2.Step != 3 {
		t.Fatalf("unexpected newest step %d", ck2.Step)
	}
}
