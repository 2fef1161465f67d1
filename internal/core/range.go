package core

import "encoding/binary"

// Random-access decompression: because chunks are independent and the
// chunk-size table gives every chunk's offset via a prefix sum, any value
// range can be reconstructed by decoding only the chunks that cover it —
// the same property ZFP advertises for its blocks (§VI), falling out of
// PFPL's chunked container for free.

// ChunkWindow scans the first last+1 entries of a raw chunk-size table and
// returns, for chunks first..last inclusive, their payload byte offsets
// (relative to the start of the payload area), lengths, and raw flags.
//
// Unlike ChunkTable it stops at the covering window: entries past last are
// never read or validated, so the cost of locating a window is proportional
// to its end position, not to the total chunk count — and a corrupt table
// entry after the window cannot fail a query that never touches it. The
// caller must bounds-check the returned window against its payload area
// (ChunkWindow does not see the payload).
func ChunkWindow(table []byte, first, last int) (offsets, lengths []int, raws []bool, err error) {
	if first < 0 || last < first || last >= len(table)/4 {
		return nil, nil, nil, ErrCorrupt
	}
	n := last - first + 1
	offsets = make([]int, n)
	lengths = make([]int, n)
	raws = make([]bool, n)
	total := 0
	for i := 0; i <= last; i++ {
		v := binary.LittleEndian.Uint32(table[4*i:])
		l := int(v &^ rawChunkFlag)
		if l > MaxChunkPayload {
			return nil, nil, nil, ErrCorrupt
		}
		if i >= first {
			offsets[i-first] = total
			lengths[i-first] = l
			raws[i-first] = v&rawChunkFlag != 0
		}
		total += l
	}
	return offsets, lengths, raws, nil
}

// ChunkTableBytes returns the raw chunk-size table and payload area of a
// parsed container. ParseHeader has already verified the buffer covers the
// table.
func ChunkTableBytes(buf []byte, h *Header) (table, payload []byte) {
	end := headerSize + 4*h.NumChunks
	return buf[headerSize:end], buf[end:]
}

// DecompressRange decodes count values starting at element offset from a
// stream of T values, touching only the covering chunks.
func DecompressRange[T Float](buf []byte, offset, count int) ([]T, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	if h.Prec64 != IsPrec64[T]() {
		return nil, ErrCorrupt
	}
	n := h.Len()
	// count is compared against the remaining span rather than offset+count
	// against n: the latter can wrap for adversarial counts near MaxInt and
	// slip past validation into a huge allocation.
	if offset < 0 || count < 0 || offset > n || count > n-offset {
		return nil, ErrCorrupt
	}
	if count == 0 {
		return nil, nil
	}
	p, err := ParamsForHeader(&h)
	if err != nil {
		return nil, err
	}
	words := chunkWordsOf[T]()
	firstChunk := offset / words
	lastChunk := (offset + count - 1) / words
	// The windowed table stops prefix-summing at lastChunk: a two-chunk
	// window into a million-chunk stream validates and sums only the table
	// prefix it needs, never the chunks behind it.
	table, payload := ChunkTableBytes(buf, &h)
	offsets, lengths, raws, err := ChunkWindow(table, firstChunk, lastChunk)
	if err != nil {
		return nil, err
	}
	w := lastChunk - firstChunk
	if offsets[w]+lengths[w] > len(payload) {
		return nil, ErrCorrupt
	}
	out := make([]T, count)
	k := GetKernels[T](nil, 0)
	defer k.Release()
	tmp := make([]T, words)
	for c := firstChunk; c <= lastChunk; c++ {
		lo := c * words
		hi := min(lo+words, n)
		dst := tmp[:hi-lo]
		i := c - firstChunk
		if err := k.Decode(&p, payload[offsets[i]:offsets[i]+lengths[i]], raws[i], dst, 0); err != nil {
			return nil, err
		}
		// Copy the overlap of [lo, hi) with [offset, offset+count).
		from := max(lo, offset)
		to := min(hi, offset+count)
		copy(out[from-offset:to-offset], dst[from-lo:to-lo])
	}
	return out, nil
}
