package pfpl

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"pfpl/internal/core"
)

// Random access into indexed framed streams. A stream written with
// StreamOptions.Index carries a footer index: per-frame records (stream
// offset, length, chunk/value counts, SHA-256) plus a fixed trailer
// locating them. OpenIndexed reads just the footer, after which Range32/64
// seek directly to the frames covering a value window and decode only the
// chunks inside it — the work is proportional to the window, not to the
// stream. Index-less (v1) streams are rejected with ErrNoIndex and keep
// decoding through the sequential Reader32/64 path unchanged.

// ErrNoIndex reports that a stream carries no footer index and therefore
// supports only sequential decoding.
var ErrNoIndex = errors.New("pfpl: stream has no footer index")

// FrameEntry describes one frame of an indexed stream, as recorded in the
// footer index.
type FrameEntry struct {
	Offset int64                 // stream byte offset of the frame's length prefix
	Length int64                 // frame body length, excluding the 4-byte prefix
	Chunks int                   // chunk count of the frame's container
	Values int64                 // element count of the frame's container
	Digest [core.DigestSize]byte // SHA-256 of the frame body
}

// IndexedStats counts the work an Indexed handle has performed. The
// acceptance property of random access — work proportional to the window,
// not the object — is directly observable here: a small Range on a large
// stream leaves BytesRead far below the stream size.
type IndexedStats struct {
	BytesRead     int64 // bytes fetched from the underlying ReaderAt
	FramesTouched int64 // frames whose header or payload was read
	ChunksDecoded int64 // chunks actually decoded
}

// Indexed is a random-access handle over an indexed framed stream. Methods
// are safe for concurrent use when the underlying io.ReaderAt is (os.File
// and bytes.Reader both are).
type Indexed struct {
	r      io.ReaderAt
	size   int64
	recs   []core.FrameRecord
	cum    []int64 // cum[i] = global index of frame i's first value; len(recs)+1
	prec64 bool

	bytesRead     atomic.Int64
	framesTouched atomic.Int64
	chunksDecoded atomic.Int64
}

// OpenIndexed opens a stream of the given size for random access through
// its footer index. It reads only the trailer, the index block, and the
// first frame's header — not the frames. Streams without a footer index
// return ErrNoIndex; a present but damaged footer returns ErrCorrupt.
func OpenIndexed(r io.ReaderAt, size int64) (*Indexed, error) {
	if size < core.IndexTrailerSize {
		return nil, ErrNoIndex
	}
	x := &Indexed{r: r, size: size}
	trailer := make([]byte, core.IndexTrailerSize)
	if err := x.readAt(trailer, size-core.IndexTrailerSize); err != nil {
		return nil, err
	}
	if !core.HasIndexTrailer(trailer) {
		return nil, ErrNoIndex
	}
	blockOff, blockLen, crc, err := core.ParseIndexTrailer(trailer, size)
	if err != nil {
		return nil, err
	}
	block := make([]byte, blockLen)
	if err := x.readAt(block, blockOff); err != nil {
		return nil, err
	}
	x.recs, err = core.ParseIndex(block, crc, blockOff)
	if err != nil {
		return nil, err
	}
	x.cum = make([]int64, len(x.recs)+1)
	for i, rec := range x.recs {
		x.cum[i+1] = x.cum[i] + rec.Values
	}
	if len(x.recs) > 0 {
		// The first frame's header pins the stream's precision and checks
		// the index against a real container before any Range call.
		h, _, _, _, err := x.frameHeader(0)
		if err != nil {
			return nil, err
		}
		x.prec64 = h.Prec64
	}
	return x, nil
}

// NumValues returns the total element count across all frames.
func (x *Indexed) NumValues() int64 { return x.cum[len(x.recs)] }

// NumFrames returns the frame count.
func (x *Indexed) NumFrames() int { return len(x.recs) }

// Double reports whether the stream holds double-precision elements.
func (x *Indexed) Double() bool { return x.prec64 }

// Entries returns a copy of the footer index records.
func (x *Indexed) Entries() []FrameEntry {
	out := make([]FrameEntry, len(x.recs))
	for i, r := range x.recs {
		out[i] = FrameEntry{Offset: r.Offset, Length: r.Length, Chunks: r.Chunks, Values: r.Values, Digest: r.Digest}
	}
	return out
}

// Stats returns the cumulative work counters of this handle.
func (x *Indexed) Stats() IndexedStats {
	return IndexedStats{
		BytesRead:     x.bytesRead.Load(),
		FramesTouched: x.framesTouched.Load(),
		ChunksDecoded: x.chunksDecoded.Load(),
	}
}

// Frame reads frame i's full body and verifies it against the indexed
// SHA-256, turning silent corruption (in storage or a cache) into a clean
// ErrCorrupt. The returned bytes are a standalone PFPL container.
func (x *Indexed) Frame(i int) ([]byte, error) {
	if i < 0 || i >= len(x.recs) {
		return nil, fmt.Errorf("pfpl: frame %d out of range [0,%d)", i, len(x.recs))
	}
	rec := x.recs[i]
	buf := make([]byte, rec.Length)
	if err := x.readAt(buf, rec.Offset+framePrefix); err != nil {
		return nil, err
	}
	x.framesTouched.Add(1)
	if core.FrameDigest(buf) != rec.Digest {
		return nil, fmt.Errorf("%w: frame %d digest mismatch", ErrCorrupt, i)
	}
	return buf, nil
}

// Range32 decodes count values starting at global element offset from a
// single-precision indexed stream, seeking directly to the covering frames
// and decoding only the covering chunks of each.
func (x *Indexed) Range32(offset, count int64) ([]float32, error) {
	return indexedRange[float32](x, offset, count)
}

// Range64 is the double-precision counterpart of Range32.
func (x *Indexed) Range64(offset, count int64) ([]float64, error) {
	return indexedRange[float64](x, offset, count)
}

func indexedRange[T core.Float](x *Indexed, offset, count int64) ([]T, error) {
	if err := x.checkRange(offset, count, core.IsPrec64[T]()); err != nil || count == 0 {
		return nil, err
	}
	out := make([]T, count)
	err := x.eachCoveringFrame(offset, count, func(f int, frameOff, frameCnt, outPos int64) error {
		vals, err := decodeFrameWindow[T](x, f, frameOff, frameCnt)
		if err != nil {
			return err
		}
		copy(out[outPos:], vals)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkRange validates a window request against the stream's extent and
// precision, mirroring DecompressRange32/64's overflow-safe guards.
func (x *Indexed) checkRange(offset, count int64, double bool) error {
	n := x.NumValues()
	if offset < 0 || count < 0 || offset > n || count > n-offset {
		return fmt.Errorf("%w: window [%d,+%d) outside [0,%d)", ErrCorrupt, offset, count, n)
	}
	if count > 0 && x.prec64 != double {
		return fmt.Errorf("%w: precision mismatch", ErrCorrupt)
	}
	return nil
}

// eachCoveringFrame locates the frames covering [offset, offset+count) by
// binary search over the cumulative value counts and invokes fn once per
// frame with the in-frame window and the output position.
func (x *Indexed) eachCoveringFrame(offset, count int64, fn func(f int, frameOff, frameCnt, outPos int64) error) error {
	first := sort.Search(len(x.recs), func(i int) bool { return x.cum[i+1] > offset })
	for f := first; f < len(x.recs) && x.cum[f] < offset+count; f++ {
		lo := max(x.cum[f], offset)
		hi := min(x.cum[f+1], offset+count)
		if err := fn(f, lo-x.cum[f], hi-lo, lo-offset); err != nil {
			return err
		}
	}
	return nil
}

// frameHeader fetches and validates frame i's container header and raw
// chunk-size table, returning the stream offset and byte length of the
// frame's payload area. Index records and container headers describe the
// same frame twice; any disagreement (chunk count, value count, extent) is
// corruption of one of them and fails here rather than decoding garbage.
func (x *Indexed) frameHeader(i int) (core.Header, []byte, int64, int, error) {
	rec := x.recs[i]
	hl := int64(core.ContainerHeaderSize) + 4*int64(rec.Chunks)
	if hl > rec.Length {
		return core.Header{}, nil, 0, 0, fmt.Errorf("%w: frame %d: index chunk count exceeds frame", ErrCorrupt, i)
	}
	buf := make([]byte, hl)
	if err := x.readAt(buf, rec.Offset+framePrefix); err != nil {
		return core.Header{}, nil, 0, 0, err
	}
	x.framesTouched.Add(1)
	h, err := core.ParseHeader(buf)
	if err != nil {
		return core.Header{}, nil, 0, 0, fmt.Errorf("pfpl: frame %d: %w", i, err)
	}
	if h.NumChunks != rec.Chunks || int64(h.Count) != rec.Values {
		return core.Header{}, nil, 0, 0, fmt.Errorf(
			"%w: frame %d: index (%d chunks, %d values) disagrees with container (%d chunks, %d values)",
			ErrCorrupt, i, rec.Chunks, rec.Values, h.NumChunks, h.Count)
	}
	payloadLen := int(rec.Length - hl)
	if core.HasChecksum(buf) {
		// A checksummed frame ends in a 4-byte CRC trailer that is not
		// chunk payload. Whole-frame CRC verification would defeat partial
		// reads; integrity on this path comes from the per-frame SHA-256
		// (Frame) and the per-window bounds checks.
		payloadLen -= 4
	}
	if payloadLen < 0 {
		return core.Header{}, nil, 0, 0, fmt.Errorf("%w: frame %d payload underflow", ErrCorrupt, i)
	}
	return h, buf[core.ContainerHeaderSize:], rec.Offset + framePrefix + hl, payloadLen, nil
}

// decodeFrameWindow decodes cnt values starting at in-frame offset off from
// frame f, reading only the frame's header+table and the covering payload
// span, and decoding only the covering chunks.
func decodeFrameWindow[T core.Float](x *Indexed, f int, off, cnt int64) ([]T, error) {
	h, table, payloadOff, payloadLen, err := x.frameHeader(f)
	if err != nil {
		return nil, err
	}
	if h.Prec64 != core.IsPrec64[T]() {
		return nil, fmt.Errorf("%w: frame %d precision disagrees with the stream", ErrCorrupt, f)
	}
	elemsPerChunk := core.ChunkWords32
	if h.Prec64 {
		elemsPerChunk = core.ChunkWords64
	}
	n := int64(h.Len())
	if off < 0 || cnt <= 0 || off+cnt > n {
		return nil, fmt.Errorf("%w: frame %d window out of range", ErrCorrupt, f)
	}
	p, err := core.ParamsForHeader(&h)
	if err != nil {
		return nil, err
	}
	firstChunk := int(off) / elemsPerChunk
	lastChunk := int(off+cnt-1) / elemsPerChunk
	offsets, lengths, raws, err := core.ChunkWindow(table, firstChunk, lastChunk)
	if err != nil {
		return nil, fmt.Errorf("pfpl: frame %d: %w", f, err)
	}
	w := lastChunk - firstChunk
	spanOff, spanEnd := offsets[0], offsets[w]+lengths[w]
	if spanEnd > payloadLen {
		return nil, fmt.Errorf("%w: frame %d chunk window exceeds payload", ErrCorrupt, f)
	}
	span := make([]byte, spanEnd-spanOff)
	if err := x.readAt(span, payloadOff+int64(spanOff)); err != nil {
		return nil, err
	}
	out := make([]T, cnt)
	k := core.GetKernels[T](nil, 0)
	defer k.Release()
	tmp := make([]T, elemsPerChunk)
	for c := firstChunk; c <= lastChunk; c++ {
		lo := int64(c) * int64(elemsPerChunk)
		hi := min(lo+int64(elemsPerChunk), n)
		dst := tmp[:hi-lo]
		i := c - firstChunk
		pl := span[offsets[i]-spanOff : offsets[i]-spanOff+lengths[i]]
		if err := k.Decode(&p, pl, raws[i], dst, 0); err != nil {
			return nil, fmt.Errorf("pfpl: frame %d: %w", f, err)
		}
		from := max(lo, off)
		to := min(hi, off+cnt)
		copy(out[from-off:to-off], dst[from-lo:to-lo])
	}
	x.chunksDecoded.Add(int64(w) + 1)
	return out, nil
}

// readAt fills buf from the stream at off, counting the bytes toward the
// handle's work statistics.
func (x *Indexed) readAt(buf []byte, off int64) error {
	n, err := x.r.ReadAt(buf, off)
	x.bytesRead.Add(int64(n))
	if err == io.EOF && n == len(buf) {
		err = nil
	}
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: stream truncated at byte %d", ErrCorrupt, off)
		}
		return err
	}
	return nil
}
