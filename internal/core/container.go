package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Container layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "PFPL"
//	4       1     format version (1)
//	5       1     flags: bits 0-1 mode, bit 2 double precision, bit 3 raw
//	6       2     reserved (zero)
//	8       8     error bound (float64 bits)
//	16      8     NOA value range (float64 bits; zero unless NOA)
//	24      8     element count
//	32      4     chunk size in bytes
//	36      4     number of chunks
//	40      4*n   chunk size table: payload length, MSB set for raw chunks
//	...           concatenated chunk payloads
//
// The table-then-payload layout mirrors the paper's design: the decoder
// computes a prefix sum over the stored chunk sizes to find where each chunk
// starts, making decompression embarrassingly parallel (§III.E).
const (
	headerSize   = 40
	magic        = "PFPL"
	version      = 1
	rawChunkFlag = 0x80000000
)

// ContainerHeaderSize is the fixed container header length, exported for
// readers that fetch a container's header and chunk-size table by offset
// (the footer-index random-access path) instead of holding the whole
// container in memory.
const ContainerHeaderSize = headerSize

// MaxElems is the largest element count a stream may declare on this
// architecture. The cap keeps every int conversion and byte-length product
// derived from Count exact: a count above it cannot be decoded into an
// addressable slice anyway (8 bytes per element plus the output would not
// fit), and an unchecked fold of a 2^64-range count into int is precisely
// the wrap that produced the writer/reader frame-cap asymmetry on 32-bit
// builds.
const MaxElems = math.MaxInt / 8

// Header describes a compressed stream.
type Header struct {
	Mode      Mode
	Prec64    bool    // double precision elements
	Raw       bool    // quantization disabled; all words are raw IEEE bits
	Bound     float64 // user error bound
	NOARange  float64 // input value range (NOA only)
	Count     uint64  // number of elements
	NumChunks int
}

// Len returns the element count as an int. ParseHeader rejects counts
// above MaxElems, and encoders set Count from a slice length, so for any
// header obtained through either path the conversion is exact on every
// architecture. A count that somehow exceeds the cap maps to 0 rather
// than wrapping.
func (h *Header) Len() int {
	if h.Count > MaxElems {
		return 0
	}
	return int(h.Count)
}

// chunkElems returns the number of elements per full chunk for the header's
// precision.
func (h *Header) chunkElems() int {
	if h.Prec64 {
		return ChunkWords64
	}
	return ChunkWords32
}

// NumChunksFor returns the chunk count covering n elements at perChunk
// elements per chunk.
func NumChunksFor(n, perChunk int) int {
	if n == 0 {
		return 0
	}
	return (n + perChunk - 1) / perChunk
}

// AppendHeader serializes h plus a zeroed chunk-size table to out.
func AppendHeader(out []byte, h *Header) []byte {
	var buf [headerSize]byte
	copy(buf[0:4], magic)
	buf[4] = version
	flags := byte(h.Mode) & 3
	if h.Prec64 {
		flags |= 4
	}
	if h.Raw {
		flags |= 8
	}
	buf[5] = flags
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(h.Bound))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(h.NOARange))
	binary.LittleEndian.PutUint64(buf[24:], h.Count)
	binary.LittleEndian.PutUint32(buf[32:], ChunkBytes)
	if h.NumChunks < 0 || int64(h.NumChunks) > math.MaxUint32 {
		panic("core: chunk count outside the container's uint32 table range")
	}
	binary.LittleEndian.PutUint32(buf[36:], uint32(h.NumChunks))
	out = append(out, buf[:]...)
	out = append(out, make([]byte, 4*h.NumChunks)...)
	return out
}

// PutChunkSize records the payload size of chunk i in the table of a buffer
// produced by AppendHeader.
func PutChunkSize(buf []byte, i int, size int, raw bool) {
	if size < 0 || size > MaxChunkPayload {
		panic("core: chunk payload size outside the container's table range")
	}
	v := uint32(size)
	if raw {
		v |= rawChunkFlag
	}
	binary.LittleEndian.PutUint32(buf[headerSize+4*i:], v)
}

// ParseHeader decodes and validates the fixed header, returning the header
// and the offset of the chunk-size table.
func ParseHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < headerSize {
		return h, ErrCorrupt
	}
	if string(buf[0:4]) != magic {
		return h, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if buf[4] != version {
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, buf[4])
	}
	flags := buf[5]
	h.Mode = Mode(flags & 3)
	h.Prec64 = flags&4 != 0
	h.Raw = flags&8 != 0
	h.Bound = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	h.NOARange = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	h.Count = binary.LittleEndian.Uint64(buf[24:])
	if h.Count > MaxElems {
		return h, fmt.Errorf("%w: element count %d exceeds the %d-element limit of this architecture", ErrCorrupt, h.Count, uint64(MaxElems))
	}
	if binary.LittleEndian.Uint32(buf[32:]) != ChunkBytes {
		return h, fmt.Errorf("%w: unsupported chunk size", ErrCorrupt)
	}
	h.NumChunks = int(binary.LittleEndian.Uint32(buf[36:]))
	if h.Mode > NOA {
		return h, fmt.Errorf("%w: bad mode", ErrCorrupt)
	}
	want := NumChunksFor(h.Len(), h.chunkElems())
	if h.NumChunks != want {
		return h, fmt.Errorf("%w: chunk count %d does not cover %d elements", ErrCorrupt, h.NumChunks, h.Count)
	}
	if len(buf) < headerSize+4*h.NumChunks {
		return h, ErrCorrupt
	}
	return h, nil
}

// ChunkTable returns, for each chunk, its payload offset (relative to the
// start of the payload area), length, and raw flag, validating that the
// table is consistent with the buffer length.
func ChunkTable(buf []byte, h *Header) (offsets, lengths []int, raws []bool, payload []byte, err error) {
	tbl := buf[headerSize : headerSize+4*h.NumChunks]
	offsets = make([]int, h.NumChunks)
	lengths = make([]int, h.NumChunks)
	raws = make([]bool, h.NumChunks)
	total := 0
	for i := 0; i < h.NumChunks; i++ {
		v := binary.LittleEndian.Uint32(tbl[4*i:])
		raws[i] = v&rawChunkFlag != 0
		l := int(v &^ rawChunkFlag)
		if l > MaxChunkPayload {
			return nil, nil, nil, nil, ErrCorrupt
		}
		offsets[i] = total
		lengths[i] = l
		total += l
	}
	payload = buf[headerSize+4*h.NumChunks:]
	if len(payload) != total {
		return nil, nil, nil, nil, fmt.Errorf("%w: payload length %d, table total %d", ErrCorrupt, len(payload), total)
	}
	return offsets, lengths, raws, payload, nil
}

// ParamsForHeader reconstructs the quantizer parameters the encoder used.
// It must be bit-identical to the encoder's derivation, which it is because
// both run NewParams on the same stored (mode, bound, range).
func ParamsForHeader(h *Header) (Params, error) {
	p, err := NewParams(h.Mode, h.Bound, h.NOARange, h.Prec64)
	if err != nil {
		return p, err
	}
	// The encoder may have forced raw mode; honor the stored flag (it can
	// only ever widen to raw, never the reverse).
	if h.Raw {
		p.Raw = true
	}
	return p, nil
}

// Range returns max-min over the finite values of src (the NOA reduction,
// §III.A). NaNs are ignored; infinities make the range infinite, which
// NewParams maps to raw mode. An empty or all-NaN input yields 0. min/max
// does not depend on evaluation order, so every executor gets the same bits.
func Range[T Float](src []T) float64 {
	first := true
	var mn, mx T
	for _, v := range src {
		if v != v {
			continue
		}
		if first {
			mn, mx = v, v
			first = false
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if first {
		return 0
	}
	return float64(mx) - float64(mn)
}
