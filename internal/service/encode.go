package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// entry is one encoded response as the cache, the singleflight and both
// endpoints hold it, shared and read-only. doc is the JSON document, byte for
// byte what encoding/json prints for the Response; doc[:head] is everything
// before `,"assignment":[` (or before the closing brace without one). offs[c]
// is the position of the `[` or `,` in front of assignment entry c*streamChunk
// and the last element that of the `]`: chunk c is doc[offs[c]+1 : offs[c+1]].
// length is len(doc) printed as the JSON endpoint's Content-Length value, and
// frame the NDJSON framing the stream endpoint puts around the ranges of doc
// (writeStream).
type entry struct {
	doc    []byte
	head   int
	offs   []int
	length []string
	frame  []byte
}

// size is what the entry costs the cache: the document, its offsets and the
// stream framing.
func (e entry) size() int64 { return int64(len(e.doc)) + 8*int64(len(e.offs)) + int64(len(e.frame)) }

// writeStream writes the entry as NDJSON: doc[:head], then the frame and the
// chunks of doc in turn. The frame is the header line's tail
// `,"chunks":N,"chunk_size":S}` and newline, each chunk's line prefix
// `{"offset":K,"assignment":[` (after the first behind the previous line's
// `]}` and newline) and the last line's end; a prefix is the frame up to its
// next `[`. Nothing is built per reply. It stops at a write error.
func (e entry) writeStream(w io.Writer) (err error) {
	write := func(p []byte) {
		if err == nil {
			_, err = w.Write(p)
		}
	}
	write(e.doc[:e.head])
	f := e.frame
	for c := 0; c+1 < len(e.offs) && err == nil; c++ {
		i := bytes.IndexByte(f, '[') + 1
		write(f[:i])
		write(e.doc[e.offs[c]+1 : e.offs[c+1]])
		f = f[i:]
	}
	write(f)
	return err
}

// frameLen is the number of bytes appendFrame writes for chunks chunks.
func frameLen(chunks int) int {
	n := len(`,"chunks":`) + digits(uint64(chunks)) + len(`,"chunk_size":`) + digits(streamChunk) + len("}\n")
	for c := 0; c < chunks; c++ {
		n += len(`{"offset":`) + digits(uint64(c*streamChunk)) + len(`,"assignment":[`) + len("]}\n")
	}
	return n
}

// appendFrame appends writeStream's frame for chunks chunks.
func appendFrame(b []byte, chunks int) []byte {
	b = strconv.AppendInt(append(b, `,"chunks":`...), int64(chunks), 10)
	b = strconv.AppendInt(append(b, `,"chunk_size":`...), streamChunk, 10)
	b = append(b, "}\n"...)
	for c := 0; c < chunks; c++ {
		if c > 0 {
			b = append(b, "]}\n"...)
		}
		b = strconv.AppendInt(append(b, `{"offset":`...), int64(c*streamChunk), 10)
		b = append(b, `,"assignment":[`...)
	}
	if chunks > 0 {
		b = append(b, "]}\n"...)
	}
	return b
}

// encodeResponse prints r as json.Marshal(r) would — the tests keep it as the
// oracle, so a field added to Response or partition.Stats has to be added here
// in declaration order — into a buffer of exactly the document's size and the
// stream's frame behind it, and notes where the stream endpoint will cut it.
// The scalar fields are staged on the stack; the four integer arrays and the
// frame are measured by a digit count.
func encodeResponse(r *Response) (entry, error) {
	st := &r.Stats
	for _, f := range [...]float64{st.LBNelemd, st.LBWeighted, st.LBSpcv} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			_, err := json.Marshal(f) // *json.UnsupportedValueError, as for the whole document
			return entry{}, err
		}
	}
	var stage [1024]byte
	s := append(stage[:0], `{"key":`...)
	s = appendString(s, r.Key)
	s = strconv.AppendInt(append(s, `,"ne":`...), int64(r.Ne), 10)
	s = strconv.AppendInt(append(s, `,"nparts":`...), int64(r.NParts), 10)
	s = appendString(append(s, `,"method":`...), r.Method)
	s = strconv.AppendInt(append(s, `,"seed":`...), r.Seed, 10)
	if r.WeightsSpec != "" {
		s = appendString(append(s, `,"weights_spec":`...), r.WeightsSpec)
	}
	s = appendString(append(s, `,"strategy":`...), r.Strategy)
	if r.Degraded {
		s = append(s, `,"degraded":true`...)
	}
	if len(r.Attempts) > 0 { // the two lists mark answers that are never cached
		s = appendJSON(append(s, `,"attempts":`...), r.Attempts)
	}
	if len(r.BreakerSkipped) > 0 {
		s = appendJSON(append(s, `,"breaker_skipped":`...), r.BreakerSkipped)
	}
	s = strconv.AppendInt(append(s, `,"stats":{"NParts":`...), int64(st.NParts), 10)
	s = append(s, `,"Nelemd":`...)
	cut0 := len(s) // Nelemd goes here
	s = appendFloat(append(s, `,"LBNelemd":`...), st.LBNelemd)
	s = append(s, `,"PartWeights":`...)
	cut1 := len(s) // PartWeights goes here
	s = appendFloat(append(s, `,"LBWeighted":`...), st.LBWeighted)
	s = append(s, `,"Spcv":`...)
	cut2 := len(s) // Spcv goes here
	s = appendFloat(append(s, `,"LBSpcv":`...), st.LBSpcv)
	s = strconv.AppendInt(append(s, `,"EdgeCut":`...), st.EdgeCut, 10)
	s = strconv.AppendInt(append(s, `,"EdgeCutUnweighted":`...), st.EdgeCutUnweighted, 10)
	s = strconv.AppendInt(append(s, `,"TotalCommVolume":`...), st.TotalCommVolume, 10)
	s = strconv.AppendInt(append(s, `,"CutVertices":`...), st.CutVertices, 10)
	s = strconv.AppendInt(append(s, `,"MaxNelemd":`...), int64(st.MaxNelemd), 10)
	s = strconv.AppendInt(append(s, `,"MinNelemd":`...), int64(st.MinNelemd), 10)
	s = strconv.AppendInt(append(s, `,"DisconnectedParts":`...), int64(st.DisconnectedParts), 10)
	s = strconv.AppendInt(append(s, `,"MaxComponents":`...), int64(st.MaxComponents), 10)
	s = strconv.AppendInt(append(s, `,"EmptyParts":`...), int64(st.EmptyParts), 10)
	s = append(s, '}')

	const assignKey = `,"assignment":`
	assign, offs := r.Assignment, []int(nil)
	n := len(s) + intsLen(st.Nelemd) + intsLen(st.PartWeights) + intsLen(st.Spcv) + len("}")
	if len(assign) > 0 { // omitempty
		n += len(assignKey) + intsLen(assign)
		offs = make([]int, 0, (len(assign)+streamChunk-1)/streamChunk+1)
	}
	chunks := (len(assign) + streamChunk - 1) / streamChunk
	doc := make([]byte, 0, n+frameLen(chunks)) // the frame goes behind the document
	doc = appendInts(append(doc, s[:cut0]...), st.Nelemd)
	doc = appendInts(append(doc, s[cut0:cut1]...), st.PartWeights)
	doc = appendInts(append(doc, s[cut1:cut2]...), st.Spcv)
	doc = append(doc, s[cut2:]...)
	head, sep := len(doc), assignKey+"["
	for lo := 0; lo < len(assign); lo += streamChunk {
		doc = append(doc, sep...)
		offs = append(offs, len(doc)-1)
		doc = appendBare(doc, assign[lo:min(lo+streamChunk, len(assign))])
		sep = ","
	}
	if len(assign) > 0 {
		offs = append(offs, len(doc))
		doc = append(doc, ']')
	}
	doc = append(doc, '}')
	frame := appendFrame(doc[len(doc):], chunks)
	doc = doc[:len(doc):len(doc)]
	return entry{doc: doc, head: head, offs: offs, length: []string{strconv.Itoa(len(doc))}, frame: frame}, nil
}

// appendString appends s as a JSON string: plain printable ASCII without the
// characters encoding/json escapes is copied between quotes, the rest is its work.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSON(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendJSON appends encoding/json's print of a string or a string list.
func appendJSON(b []byte, v any) []byte {
	q, _ := json.Marshal(v)
	return append(b, q...)
}

// appendFloat appends a finite f by encoding/json's rule: the shortest 'f' form,
// or 'e' outside [1e-6, 1e21) with a one-digit negative exponent left unpadded.
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

type integer interface{ int | int32 | int64 }

// intsLen is the number of bytes appendInts writes for a.
func intsLen[T integer](a []T) int {
	if a == nil {
		return len("null")
	}
	n := len("[]") + max(len(a)-1, 0) // brackets and commas
	for _, v := range a {
		u := uint64(v)
		if v < 0 {
			u, n = -u, n+1
		}
		n += digits(u)
	}
	return n
}

// pow10 holds every power of ten a uint64 can: 10^0 through 10^19.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digits is the number of decimal digits of u. With L = bits.Len64(u), u
// has floor(L·log10 2) or one more; 1233/4096 is log10 2 closely enough for
// every L ≤ 64, and one compare with a power of ten picks. u|1 has as many
// digits as u (no power of ten above 1 is odd) and a length of at least 1.
func digits(u uint64) int {
	u |= 1
	d := bits.Len64(u) * 1233 >> 12
	if u >= pow10[d] {
		d++
	}
	return d
}

// appendInts appends a as a JSON array; a nil slice is null.
func appendInts[T integer](b []byte, a []T) []byte {
	if a == nil {
		return append(b, "null"...)
	}
	return append(appendBare(append(b, '['), a), ']')
}

// appendBare appends the elements of a separated by commas, without brackets.
func appendBare[T integer](b []byte, a []T) []byte {
	for i, v := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}
