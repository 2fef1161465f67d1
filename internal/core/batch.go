package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Batch container: the multi-tenant framing for many small fields packed
// into one stream. DAQ-style deployments (the LCLS acquisition-loop shape)
// compress thousands of small buffers per second; paying per-field container
// overhead is cheap, but paying per-field *dispatch* is not, so the batch
// container exists to let every executor process all fields' chunks in one
// pass while keeping each field independently addressable.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "PFBC"
//	4       1     format version (1)
//	5       1     flags: bit 2 double precision, bit 4 checksum trailer
//	6       2     reserved (zero)
//	8       4     field count
//	12      40*n  field index table, one entry per field:
//	              0   8   payload offset of the field's container
//	              8   8   container length in bytes
//	              16  8   element count
//	              24  8   error bound (float64 bits)
//	              32  1   mode
//	              33  1   entry flags: bit 0 raw (lossless storage)
//	              34  6   reserved (zero)
//	...           concatenated per-field containers
//
// Each field's payload is a complete standalone PFPL container, bit-identical
// to what the single-field compressor emits for that field. Random access to
// field i therefore never decodes its neighbors, and the cross-executor
// bit-identity of the batch container reduces to the per-field identity the
// conformance suite already pins. The index table duplicates each field's
// count/bound/mode so metadata queries stay index-local; decoders cross-check
// the duplicate against the field's own header before trusting either.
const (
	batchHeaderSize = 12
	batchMagic      = "PFBC"
	batchVersion    = 1
	batchEntrySize  = 40

	batchFlagPrec64   = 0x04
	batchFlagChecksum = checksumFlag // shared bit: VerifyAndStripChecksum works unchanged

	batchEntryFlagRaw = 0x01
)

// BatchHeaderSize and BatchEntrySize are exported for readers that size
// index fetches by offset.
const (
	BatchHeaderSize = batchHeaderSize
	BatchEntrySize  = batchEntrySize
)

// MaxBatchFields caps the declared field count: the index table itself must
// be addressable, and a count beyond this cannot be backed by real bytes on
// any architecture this package targets.
const MaxBatchFields = math.MaxInt / batchEntrySize

// BatchEntry is one field's index record.
type BatchEntry struct {
	Offset uint64  // payload offset of the field's container
	Length uint64  // container length in bytes
	Values uint64  // element count
	Bound  float64 // error bound (duplicated from the field header)
	Mode   Mode
	Raw    bool // field stored losslessly (quantization disabled)
}

// BatchHeader describes a parsed batch container's fixed header.
type BatchHeader struct {
	Prec64    bool
	NumFields int
}

// AppendBatchHeader serializes a batch header plus a zeroed index table.
func AppendBatchHeader(out []byte, prec64 bool, numFields int) []byte {
	if numFields < 0 || int64(numFields) > math.MaxUint32 {
		panic("core: field count outside the batch container's uint32 range")
	}
	var buf [batchHeaderSize]byte
	copy(buf[0:4], batchMagic)
	buf[4] = batchVersion
	if prec64 {
		buf[5] = batchFlagPrec64
	}
	binary.LittleEndian.PutUint32(buf[8:], uint32(numFields))
	out = append(out, buf[:]...)
	out = append(out, make([]byte, batchEntrySize*numFields)...)
	return out
}

// PutBatchEntry records field i's index entry in a buffer produced by
// AppendBatchHeader.
//
//pfpl:hotpath
func PutBatchEntry(buf []byte, i int, e *BatchEntry) {
	rec := buf[batchHeaderSize+batchEntrySize*i:]
	binary.LittleEndian.PutUint64(rec[0:], e.Offset)
	binary.LittleEndian.PutUint64(rec[8:], e.Length)
	binary.LittleEndian.PutUint64(rec[16:], e.Values)
	binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(e.Bound))
	rec[32] = byte(e.Mode)
	var fl byte
	if e.Raw {
		fl = batchEntryFlagRaw
	}
	rec[33] = fl
	for j := 34; j < batchEntrySize; j++ {
		rec[j] = 0
	}
}

// batchEntryAt decodes field i's index entry. The caller guarantees the
// table bytes are present (ParseBatchHeader validated the length).
//
//pfpl:hotpath
func batchEntryAt(buf []byte, i int) BatchEntry {
	rec := buf[batchHeaderSize+batchEntrySize*i:]
	return BatchEntry{
		Offset: binary.LittleEndian.Uint64(rec[0:]),
		Length: binary.LittleEndian.Uint64(rec[8:]),
		Values: binary.LittleEndian.Uint64(rec[16:]),
		Bound:  math.Float64frombits(binary.LittleEndian.Uint64(rec[24:])),
		Mode:   Mode(rec[32]),
		Raw:    rec[33]&batchEntryFlagRaw != 0,
	}
}

// IsBatch reports whether buf begins with the batch container magic.
func IsBatch(buf []byte) bool {
	return len(buf) >= 4 && string(buf[0:4]) == batchMagic
}

// ParseBatchHeader decodes and validates the fixed batch header, including
// that the declared index table is fully present. All size arithmetic runs
// in uint64 before any fold to int, so a count-overflow header is rejected
// rather than wrapped (the same discipline ParseHeader applies to element
// counts).
func ParseBatchHeader(buf []byte) (BatchHeader, error) {
	var bh BatchHeader
	if len(buf) < batchHeaderSize {
		return bh, ErrCorrupt
	}
	if string(buf[0:4]) != batchMagic {
		return bh, fmt.Errorf("%w: bad batch magic", ErrCorrupt)
	}
	if buf[4] != batchVersion {
		return bh, fmt.Errorf("%w: unsupported batch version %d", ErrCorrupt, buf[4])
	}
	if buf[5]&^(batchFlagPrec64|batchFlagChecksum) != 0 || buf[6] != 0 || buf[7] != 0 {
		return bh, fmt.Errorf("%w: reserved batch flag bits set", ErrCorrupt)
	}
	bh.Prec64 = buf[5]&batchFlagPrec64 != 0
	count := uint64(binary.LittleEndian.Uint32(buf[8:]))
	if count > MaxBatchFields {
		return bh, fmt.Errorf("%w: batch field count %d exceeds the %d-field limit of this architecture", ErrCorrupt, count, uint64(MaxBatchFields))
	}
	if need := uint64(batchHeaderSize) + batchEntrySize*count; uint64(len(buf)) < need {
		return bh, fmt.Errorf("%w: batch index table truncated", ErrCorrupt)
	}
	//pfpl:ignore intwidth count is capped at MaxBatchFields above, which fits int on every target
	bh.NumFields = int(count)
	return bh, nil
}

// BatchIndexTable returns the validated index entries and the payload area.
// Validation ties the table to bytes actually present: offsets must be
// exactly contiguous (field i starts where field i-1 ends), lengths must sum
// to the payload size, and every element count must pass the same MaxElems
// choke point ParseHeader enforces — all compared in uint64 before any int
// conversion, so corrupt 2^64-range values cannot wrap into plausible ones.
func BatchIndexTable(buf []byte, bh *BatchHeader) (entries []BatchEntry, payload []byte, err error) {
	payload = buf[batchHeaderSize+batchEntrySize*bh.NumFields:]
	entries = make([]BatchEntry, bh.NumFields)
	var total uint64
	for i := 0; i < bh.NumFields; i++ {
		e := batchEntryAt(buf, i)
		if e.Mode > NOA {
			return nil, nil, fmt.Errorf("%w: batch entry %d: bad mode", ErrCorrupt, i)
		}
		if e.Values > MaxElems {
			return nil, nil, fmt.Errorf("%w: batch entry %d: element count %d exceeds the %d-element limit", ErrCorrupt, i, e.Values, uint64(MaxElems))
		}
		if e.Offset != total {
			return nil, nil, fmt.Errorf("%w: batch entry %d: offset %d, want contiguous %d", ErrCorrupt, i, e.Offset, total)
		}
		if e.Length > uint64(len(payload))-total {
			return nil, nil, fmt.Errorf("%w: batch entry %d: length %d overruns the payload", ErrCorrupt, i, e.Length)
		}
		total += e.Length
		entries[i] = e
	}
	if total != uint64(len(payload)) {
		return nil, nil, fmt.Errorf("%w: batch payload length %d, index total %d", ErrCorrupt, len(payload), total)
	}
	return entries, payload, nil
}

// FieldContainer slices field i's standalone container out of the payload
// area. The entry passed validation, so the fold to int is exact.
func FieldContainer(entries []BatchEntry, payload []byte, i int) []byte {
	e := &entries[i]
	//pfpl:ignore intwidth Offset/Length validated contiguous within len(payload) by BatchIndexTable
	return payload[int(e.Offset) : int(e.Offset)+int(e.Length)]
}

// CheckFieldHeader cross-checks a field's own container header against its
// index entry. The index duplicates metadata for index-local queries; a
// decoder must not trust either copy until they agree.
func CheckFieldHeader(e *BatchEntry, h *Header, prec64 bool) error {
	switch {
	case h.Prec64 != prec64:
		return fmt.Errorf("%w: batch field precision disagrees with the container flag", ErrCorrupt)
	case h.Count != e.Values:
		return fmt.Errorf("%w: batch field count %d disagrees with index entry %d", ErrCorrupt, h.Count, e.Values)
	case h.Mode != e.Mode:
		return fmt.Errorf("%w: batch field mode disagrees with its index entry", ErrCorrupt)
	case math.Float64bits(h.Bound) != math.Float64bits(e.Bound):
		return fmt.Errorf("%w: batch field bound disagrees with its index entry", ErrCorrupt)
	case h.Raw != e.Raw:
		return fmt.Errorf("%w: batch field raw flag disagrees with its index entry", ErrCorrupt)
	}
	return nil
}

// BatchIndex is a batch container's validated header and index table.
type BatchIndex struct {
	Prec64  bool
	Entries []BatchEntry
	Payload []byte // concatenated field containers
}

// ParseBatch validates a batch container's header and index table (the
// checksum trailer, if any, already stripped). It is the one place a batch
// index is validated; fields are checked one at a time by Field, so random
// access never touches a neighbor.
func ParseBatch(buf []byte) (BatchIndex, error) {
	bh, err := ParseBatchHeader(buf)
	if err != nil {
		return BatchIndex{}, err
	}
	entries, payload, err := BatchIndexTable(buf, &bh)
	if err != nil {
		return BatchIndex{}, err
	}
	return BatchIndex{Prec64: bh.Prec64, Entries: entries, Payload: payload}, nil
}

// Field returns field i's standalone container after cross-checking the
// field's own header against its index entry, so neither copy of the
// metadata is trusted alone.
func (b *BatchIndex) Field(i int) ([]byte, error) {
	fc := FieldContainer(b.Entries, b.Payload, i)
	h, err := ParseHeader(fc)
	if err != nil {
		return nil, fmt.Errorf("batch field %d: %w", i, err)
	}
	if err := CheckFieldHeader(&b.Entries[i], &h, b.Prec64); err != nil {
		return nil, fmt.Errorf("batch field %d: %w", i, err)
	}
	return fc, nil
}

// BatchFields turns a batch container of the given precision into its
// validated field containers, each a standalone stream every single-field
// decoder accepts.
func BatchFields(buf []byte, prec64 bool) ([][]byte, error) {
	b, err := ParseBatch(buf)
	if err != nil {
		return nil, err
	}
	if b.Prec64 != prec64 {
		return nil, ErrCorrupt
	}
	comps := make([][]byte, len(b.Entries))
	for i := range comps {
		if comps[i], err = b.Field(i); err != nil {
			return nil, err
		}
	}
	return comps, nil
}

// EntryForHeader builds the index entry describing a field container with
// header h occupying length bytes at offset. Every batch writer derives
// entries through this one function so the duplicated metadata can never
// drift between executors.
func EntryForHeader(h *Header, offset, length uint64) BatchEntry {
	return BatchEntry{
		Offset: offset,
		Length: length,
		Values: h.Count,
		Bound:  h.Bound,
		Mode:   h.Mode,
		Raw:    h.Raw,
	}
}

// PackBatch assembles a batch container from per-field standalone containers
// (each as produced by a single-field compressor). Every field must match
// the batch precision. This is the reference packing: the specialized
// one-dispatch batch compressors in cpucomp and gpusim must produce
// bit-identical output.
func PackBatch(comps [][]byte, prec64 bool) ([]byte, error) {
	var totalPayload uint64
	headers := make([]Header, len(comps))
	for i, c := range comps {
		h, err := ParseHeader(c)
		if err != nil {
			return nil, fmt.Errorf("batch field %d: %w", i, err)
		}
		if h.Prec64 != prec64 {
			return nil, fmt.Errorf("batch field %d: %w: precision disagrees with the batch", i, ErrCorrupt)
		}
		headers[i] = h
		totalPayload += uint64(len(c))
	}
	if totalPayload > MaxElems { // payload bytes must stay int-addressable
		return nil, fmt.Errorf("%w: batch payload too large", ErrCorrupt)
	}
	out := AppendBatchHeader(nil, prec64, len(comps))
	var off uint64
	for i, c := range comps {
		e := EntryForHeader(&headers[i], off, uint64(len(c)))
		PutBatchEntry(out, i, &e)
		off += uint64(len(c))
	}
	for _, c := range comps {
		out = append(out, c...)
	}
	return out, nil
}

// AppendBatchChecksum marks the batch header and appends the CRC-32C of the
// marked container, the batch analog of AppendChecksum. The trailer is
// verified and stripped by the same VerifyAndStripChecksum (the flag bit and
// trailer layout are shared).
func AppendBatchChecksum(buf []byte) ([]byte, error) {
	if _, err := ParseBatchHeader(buf); err != nil {
		return nil, err
	}
	out := make([]byte, len(buf), len(buf)+4)
	copy(out, buf)
	out[5] |= batchFlagChecksum
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], crc32Checksum(out))
	return append(out, b4[:]...), nil
}
