package supervise

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"sfccube/internal/seam"
)

// Checkpoint file format (little-endian), version 1:
//
//	offset  size  field
//	0       4     magic "SFCK"
//	4       4     version (uint32, = 1)
//	8       8     step counter (uint64)
//	16      8     dt (float64 bits) — the step size in use, so a resumed
//	              run continues with the exact dt (including any halvings)
//	24      4     nelems (uint32)
//	28      4     npts = Np*Np (uint32)
//	32      24*n  payload: v1, v2, phi slabs (n = nelems*npts float64 each)
//	end-4   4     CRC-32C (Castagnoli) of everything before it
//
// The trailer checksum means truncation, bit flips and torn writes are all
// detected as *CorruptError; Decode never panics on arbitrary input (see
// FuzzCheckpointDecode).

const (
	ckptMagic   = "SFCK"
	ckptVersion = 1
	ckptHeader  = 32
	ckptTrailer = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a checkpoint that failed structural or checksum
// validation during Decode.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "resilience: corrupt checkpoint: " + e.Reason }

// Checkpoint is a decoded restart point: the complete prognostic state of a
// ShallowWater integration plus the step counter and step size.
type Checkpoint struct {
	Step        uint64
	Dt          float64
	NElems      int
	Npts        int
	V1, V2, Phi []float64
}

// EncodeCheckpoint serialises the prognostic state of sw at the given step
// counter and step size into the versioned, CRC-checksummed format above.
func EncodeCheckpoint(sw *seam.ShallowWater, step uint64, dt float64) []byte {
	v1, v2, phi := sw.StateSlabs()
	n := len(v1)
	buf := make([]byte, ckptHeader+24*n+ckptTrailer)
	copy(buf[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(buf[4:8], ckptVersion)
	binary.LittleEndian.PutUint64(buf[8:16], step)
	binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(dt))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(sw.G.NumElems()))
	binary.LittleEndian.PutUint32(buf[28:32], uint32(sw.G.PointsPerElem()))
	off := ckptHeader
	for _, slab := range [][]float64{v1, v2, phi} {
		for _, x := range slab {
			binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(x))
			off += 8
		}
	}
	crc := crc32.Checksum(buf[:off], crcTable)
	binary.LittleEndian.PutUint32(buf[off:off+4], crc)
	return buf
}

// DecodeCheckpoint parses and fully validates a checkpoint. Every failure
// mode — short input, bad magic, unknown version, size mismatch, checksum
// mismatch — returns a *CorruptError; valid input round-trips exactly
// (float64 bit patterns are preserved, including NaNs a corrupted run may
// have checkpointed).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeader+ckptTrailer {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d bytes, want at least %d", len(data), ckptHeader+ckptTrailer)}
	}
	if string(data[0:4]) != ckptMagic {
		return nil, &CorruptError{Reason: fmt.Sprintf("bad magic %q", data[0:4])}
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ckptVersion {
		return nil, &CorruptError{Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	nelems := binary.LittleEndian.Uint32(data[24:28])
	npts := binary.LittleEndian.Uint32(data[28:32])
	// Compute the expected length in uint64 to rule out overflow on
	// adversarial headers before any allocation.
	n := uint64(nelems) * uint64(npts)
	want := uint64(ckptHeader) + 24*n + ckptTrailer
	if n > 1<<32 || uint64(len(data)) != want {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d bytes for %d elements x %d points, want %d", len(data), nelems, npts, want)}
	}
	body := len(data) - ckptTrailer
	if got, want := crc32.Checksum(data[:body], crcTable), binary.LittleEndian.Uint32(data[body:]); got != want {
		return nil, &CorruptError{Reason: fmt.Sprintf("checksum %08x, want %08x", got, want)}
	}
	ck := &Checkpoint{
		Step:   binary.LittleEndian.Uint64(data[8:16]),
		Dt:     math.Float64frombits(binary.LittleEndian.Uint64(data[16:24])),
		NElems: int(nelems),
		Npts:   int(npts),
	}
	slabs := make([]float64, 3*n)
	for i := range slabs {
		off := ckptHeader + 8*i
		slabs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
	}
	ck.V1, ck.V2, ck.Phi = slabs[:n:n], slabs[n:2*n:2*n], slabs[2*n:]
	return ck, nil
}

// Restore writes the checkpointed prognostic state back into sw. It fails
// when the checkpoint's grid shape does not match.
func (ck *Checkpoint) Restore(sw *seam.ShallowWater) error {
	if ck.NElems != sw.G.NumElems() || ck.Npts != sw.G.PointsPerElem() {
		return fmt.Errorf("resilience: checkpoint for %dx%d grid, model has %dx%d",
			ck.NElems, ck.Npts, sw.G.NumElems(), sw.G.PointsPerElem())
	}
	v1, v2, phi := sw.StateSlabs()
	copy(v1, ck.V1)
	copy(v2, ck.V2)
	copy(phi, ck.Phi)
	return nil
}
