package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"sfccube/internal/partition"
)

// streamHeader is the first NDJSON line as a client decodes it: the response
// without its assignment, plus the chunking layout of the lines that follow.
// With streamLine it is also the oracle for the stream's bytes: it is how the
// service printed the stream before the lines became ranges of the document.
type streamHeader struct {
	Response
	Chunks    int `json:"chunks"`
	ChunkSize int `json:"chunk_size"`
}

// streamLine is one assignment chunk: Assignment[Offset : Offset+len(Part)].
type streamLine struct {
	Offset     int     `json:"offset"`
	Assignment []int32 `json:"assignment"`
}

// oracleStream prints r's NDJSON stream with encoding/json.
func oracleStream(t testing.TB, r Response) []byte {
	t.Helper()
	assign := r.Assignment
	r.Assignment = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(streamHeader{r, (len(assign) + streamChunk - 1) / streamChunk, streamChunk}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(assign); off += streamChunk {
		if err := enc.Encode(streamLine{off, assign[off:min(off+streamChunk, len(assign))]}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkEncode holds encodeResponse to its contract on r: the document is
// json.Marshal(r) in a buffer of exactly its size, the stream is what
// encoding/json printed line by line, the lines decode back to r.Assignment,
// and an unsupported float is json.Marshal's error.
func checkEncode(t testing.TB, r Response) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	e, err := encodeResponse(&r)
	if wantErr != nil {
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || err.Error() != wantErr.Error() {
			t.Fatalf("encode error %v, json.Marshal says %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("encode failed on a response json.Marshal accepts: %v", err)
	}
	if !bytes.Equal(e.doc, want) {
		t.Fatalf("document differs from json.Marshal\n got %s\nwant %s", clip(e.doc), clip(want))
	}
	if cap(e.doc) != len(e.doc) {
		t.Errorf("document has %d bytes in a buffer of %d", len(e.doc), cap(e.doc))
	}
	var stream bytes.Buffer
	if err := e.writeStream(&stream); err != nil {
		t.Fatal(err)
	}
	if want := oracleStream(t, r); !bytes.Equal(stream.Bytes(), want) {
		t.Fatalf("stream differs from encoding/json's\n got %s\nwant %s", clip(stream.Bytes()), clip(want))
	}
	sc := bufio.NewScanner(&stream)
	sc.Buffer(nil, stream.Len()+1)
	sc.Scan() // header line, compared above
	var got []int32
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("chunk line does not decode: %v", err)
		}
		if line.Offset != len(got) {
			t.Fatalf("chunk offset %d, want %d", line.Offset, len(got))
		}
		got = append(got, line.Assignment...)
	}
	if !slices.Equal(got, r.Assignment) {
		t.Fatalf("stream lines reassemble to %d entries that differ from the %d encoded", len(got), len(r.Assignment))
	}
}

// clip shortens a document for a failure message.
func clip(b []byte) string {
	if len(b) > 600 {
		return fmt.Sprintf("%s … %s (%d bytes)", b[:300], b[len(b)-300:], len(b))
	}
	return string(b)
}

// awkwardStrings need every escape encoding/json knows: quotes, backslashes,
// the HTML-sensitive three, control bytes, non-ASCII, invalid UTF-8, U+2028/9.
var awkwardStrings = []string{
	"", "sfc", "hv:amp=16,m=6", `say "hi"`, `back\slash`, "<script>&amp;</script>", "tab\there",
	"nul\x00byte", "bell\x07", "del\x7f", "naïve Größe", "日本語", "bad\xffutf8", "\xc3\x28", "line\u2028sep\u2029",
	"KWAY(seed 1): metis: KWAY partition of 24 vertices into 3 parts cancelled: context deadline exceeded",
}

// awkwardFloats sit on both sides of encoding/json's 'f'/'e' switch-overs.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.023809523809523853, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 2.5e-10, -3e-300,
	1e20, 9.99e20, 1e21, 1.1e21, -1e21, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 1.0 / 3,
}

var awkwardInts = []int64{0, 1, -1, 9, 10, 99, 100, 999, 1000, -1000, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

// randomInts is nil, empty or n values, mostly small part ids with the
// awkward ones mixed in.
func randomInts[T integer](rng *rand.Rand, n int) []T {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	a := make([]T, n)
	for i := range a {
		if rng.Intn(8) == 0 {
			a[i] = T(awkwardInts[rng.Intn(len(awkwardInts))]) // truncates for int32: still a valid value
		} else {
			a[i] = T(rng.Intn(2000) - 200)
		}
	}
	return a
}

// randomResponse draws a Response that exercises every branch of the encoder.
func randomResponse(rng *rand.Rand) Response {
	str := func() string {
		if rng.Intn(3) == 0 {
			return awkwardStrings[rng.Intn(len(awkwardStrings))]
		}
		return fmt.Sprintf("%x", rng.Int63())
	}
	strs := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		a := make([]string, 1+rng.Intn(3))
		for i := range a {
			a[i] = str()
		}
		return a
	}
	flt := func() float64 {
		if rng.Intn(2) == 0 {
			return awkwardFloats[rng.Intn(len(awkwardFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	num := func() int64 {
		if rng.Intn(3) == 0 {
			return awkwardInts[rng.Intn(len(awkwardInts))]
		}
		return rng.Int63n(1 << 20)
	}
	k := rng.Intn(40)
	if rng.Intn(10) == 0 {
		k = streamChunk - 2 + rng.Intn(5) // around the chunk boundary
	}
	r := Response{
		Key: str(), Ne: int(num()), NParts: int(num()), Method: str(), Seed: num(),
		Strategy: str(), Degraded: rng.Intn(2) == 0, Attempts: strs(), BreakerSkipped: strs(),
		Stats: partition.Stats{
			NParts: int(num()), Nelemd: randomInts[int](rng, rng.Intn(20)), LBNelemd: flt(),
			PartWeights: randomInts[int64](rng, rng.Intn(20)), LBWeighted: flt(),
			Spcv: randomInts[int64](rng, rng.Intn(20)), LBSpcv: flt(),
			EdgeCut: num(), EdgeCutUnweighted: num(), TotalCommVolume: num(), CutVertices: num(),
			MaxNelemd: int(num()), MinNelemd: int(num()), DisconnectedParts: int(num()),
			MaxComponents: int(num()), EmptyParts: int(num()),
		},
		Assignment: randomInts[int32](rng, k),
	}
	if rng.Intn(2) == 0 {
		r.WeightsSpec = str()
	}
	return r
}

// TestEncodeMatchesEncodingJSON is the encoder's contract, with encoding/json
// as the oracle, over seeded random responses and a sweep of every awkward
// string and float through every field of its kind.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 400; i++ {
		checkEncode(t, randomResponse(rng))
	}
	for _, s := range awkwardStrings {
		checkEncode(t, Response{Key: s, Method: s, WeightsSpec: s, Strategy: s, Attempts: []string{s, s}, BreakerSkipped: []string{s}})
	}
	for _, f := range awkwardFloats {
		checkEncode(t, Response{Stats: partition.Stats{LBNelemd: f, LBWeighted: -f, LBSpcv: f / 3}})
	}
	for _, v := range awkwardInts {
		checkEncode(t, Response{Ne: int(v), Seed: v, Assignment: []int32{int32(v)},
			Stats: partition.Stats{Nelemd: []int{int(v)}, PartWeights: []int64{v, -v}, Spcv: []int64{v}, EdgeCut: v}})
	}
	// A head longer than the encoder's stack staging buffer.
	long := slices.Concat(awkwardStrings, awkwardStrings, awkwardStrings, awkwardStrings)
	checkEncode(t, Response{Attempts: long, Assignment: []int32{0, 1}})
}

// TestDigits holds the bit-length digit count to strconv at every place it
// can go wrong: both sides of every power of ten and of two a uint64 holds.
func TestDigits(t *testing.T) {
	edges := []uint64{0, math.MaxUint64}
	for p := uint64(1); ; p *= 10 {
		edges = append(edges, p-1, p, p+1)
		if p > math.MaxUint64/10 {
			break
		}
	}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		edges = append(edges, p-1, p, p+1)
	}
	for _, u := range edges {
		if got, want := digits(u), len(strconv.FormatUint(u, 10)); got != want {
			t.Errorf("digits(%d) = %d, want %d", u, got, want)
		}
	}
}

// TestEncodeUnsupportedFloats: NaN and the infinities fail as json.Marshal
// fails, whichever of the three floats carries them.
func TestEncodeUnsupportedFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 3; field++ {
			var r Response
			*[]*float64{&r.Stats.LBNelemd, &r.Stats.LBWeighted, &r.Stats.LBSpcv}[field] = f
			if _, err := encodeResponse(&r); err == nil {
				t.Errorf("float %v in field %d encoded without error", f, field)
			}
			checkEncode(t, r)
		}
	}
}

// TestEncodeChunkBoundaries drives the encoder with assignments of one entry,
// exactly one chunk, one entry more, and exactly two chunks.
func TestEncodeChunkBoundaries(t *testing.T) {
	for _, k := range []int{1, streamChunk, streamChunk + 1, 2 * streamChunk} {
		assign := make([]int32, k)
		for i := range assign {
			assign[i] = int32(i % 1009)
		}
		r := Response{Key: "k", Method: "sfc", Strategy: "SFC", Assignment: assign}
		checkEncode(t, r)
		e, err := encodeResponse(&r)
		if err != nil {
			t.Fatal(err)
		}
		if want := (k + streamChunk - 1) / streamChunk; len(e.offs) != want+1 {
			t.Errorf("k=%d: %d offsets, want %d", k, len(e.offs), want+1)
		}
		if e.doc[e.offs[0]] != '[' || e.doc[e.offs[len(e.offs)-1]] != ']' || !bytes.HasSuffix(e.doc[:e.offs[0]], []byte(`,"assignment":`)) {
			t.Errorf("k=%d: offsets do not bracket the assignment array", k)
		}
		if cap(e.frame) != len(e.frame) {
			t.Errorf("k=%d: frame of %d bytes in %d: frameLen miscounts", k, len(e.frame), cap(e.frame))
		}
		if e.size() != int64(len(e.doc)+8*len(e.offs)+len(e.frame)) {
			t.Errorf("k=%d: size %d does not count document, offsets and frame", k, e.size())
		}
	}
}

// TestStreamChunkLayoutOnTheWire: Ne=128 is the exact-multiple case (K = 6
// full chunks), Ne=64 the ragged one (K = 1.5 chunks). The header declares
// the layout and every line but the last carries streamChunk entries.
func TestStreamChunkLayoutOnTheWire(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, c := range []struct{ ne, chunks, last int }{{128, 6, streamChunk}, {64, 2, streamChunk / 2}} {
		body, _ := postStream(t, h, Request{Ne: c.ne, NParts: 96, Method: "sfc"})
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		var hdr streamHeader
		if err := json.Unmarshal(lines[0], &hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.Chunks != c.chunks || hdr.ChunkSize != streamChunk || len(lines) != 1+c.chunks || hdr.Assignment != nil {
			t.Fatalf("ne=%d: header declares %d×%d, body has %d lines, want %d chunks", c.ne, hdr.Chunks, hdr.ChunkSize, len(lines), c.chunks)
		}
		for i, raw := range lines[1:] {
			var line streamLine
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			want := streamChunk
			if i == c.chunks-1 {
				want = c.last
			}
			if line.Offset != i*streamChunk || len(line.Assignment) != want {
				t.Errorf("ne=%d line %d: offset %d with %d entries, want %d with %d", c.ne, i, line.Offset, len(line.Assignment), i*streamChunk, want)
			}
		}
	}
}

// fuzzInts is nil (mode 0), empty (mode 1) or n values drawn from next.
func fuzzInts[T integer](mode uint16, n int, next func() int64) []T {
	if mode == 0 {
		return nil
	}
	a := make([]T, 0, n)
	for i := 0; i < n && mode > 1; i++ {
		a = append(a, T(next()))
	}
	return a
}

// FuzzEncodeResponse feeds checkEncode responses assembled from fuzzed
// strings, floats and integers; shape picks nil, empty or filled for each
// array and which optional fields are present. Seed corpus:
// testdata/fuzz/FuzzEncodeResponse.
func FuzzEncodeResponse(f *testing.F) {
	f.Add("dfd1629c", "cfl", "KWAY(seed 1): cancelled", 0.023809523809523853, 0.0, 1e-7, int64(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(0xffff))
	f.Add(`"\<>&`, "bad\xffutf8 ", "日本語\x00", 1e21, -9.999999e-7, math.MaxFloat64, int64(math.MinInt64), []byte{}, uint16(0))
	f.Add("", "", "", math.NaN(), math.Inf(1), math.Inf(-1), int64(-1), bytes.Repeat([]byte{0xff, 0x80, 0x00, 0x7f}, 64), uint16(0x5555))
	f.Fuzz(func(t *testing.T, key, spec, attempt string, lb1, lb2, lb3 float64, seed int64, raw []byte, shape uint16) {
		// ints draws n integers from raw (cycling, 8 bytes each, varying
		// magnitude), or nil / empty as the next two shape bits say.
		pos := 0
		next := func() int64 {
			var w [8]byte
			for i := range w {
				if len(raw) > 0 {
					w[i] = raw[pos%len(raw)]
					pos++
				}
			}
			v := int64(binary.LittleEndian.Uint64(w[:]))
			return v >> (uint(w[0]) % 64)
		}
		pick := func() (mode uint16) { mode, shape = shape&3, shape>>2; return mode }
		n := len(raw)
		r := Response{Key: key, Ne: int(next()), NParts: int(next()), Method: spec, Seed: seed, Strategy: attempt}
		r.Stats = partition.Stats{NParts: int(next()), LBNelemd: lb1, LBWeighted: lb2, LBSpcv: lb3,
			EdgeCut: next(), EdgeCutUnweighted: next(), TotalCommVolume: next(), CutVertices: next(),
			MaxNelemd: int(next()), MinNelemd: int(next()), DisconnectedParts: int(next()),
			MaxComponents: int(next()), EmptyParts: int(next())}
		r.Stats.Nelemd = fuzzInts[int](pick(), n, next)
		r.Stats.PartWeights = fuzzInts[int64](pick(), n, next)
		r.Stats.Spcv = fuzzInts[int64](pick(), n, next)
		if m := pick(); m == 3 {
			r.Assignment = fuzzInts[int32](m, streamChunk+n%3, next) // straddle the chunk boundary
		} else {
			r.Assignment = fuzzInts[int32](m, n, next)
		}
		if m := pick(); m == 1 {
			r.Attempts = []string{}
		} else if m > 1 {
			r.Attempts = []string{attempt, key}
		}
		if m := pick(); m == 1 {
			r.BreakerSkipped = []string{}
		} else if m > 1 {
			r.BreakerSkipped = []string{spec}
		}
		if m := pick(); m > 1 {
			r.WeightsSpec = spec
		}
		r.Degraded = pick() > 1
		checkEncode(t, r)
	})
}
