package gpusim

import (
	"pfpl/internal/bits"
	"pfpl/internal/core"
	"pfpl/internal/obs"
)

// threadsPerBlock is the block size the PFPL kernels request; the engine
// clamps it to the device's limit (the §V-F occupancy discussion).
const threadsPerBlock = 256

// stripe partitions total items into contiguous per-thread ranges, the
// assignment the compaction phases need so that scan offsets preserve the
// serial output order.
func stripe(total, threads, t int) (lo, hi int) {
	span := (total + threads - 1) / threads
	lo = t * span
	if lo > total {
		lo = total
	}
	hi = lo + span
	if hi > total {
		hi = total
	}
	return lo, hi
}

// The kernel phases that touch value bits — quantize, dequantize and the
// little-endian word↔byte serialisation — each run thread t's share
// (indices t, t+step, …) of one barrier-delimited phase. They are generic
// over the value type T and the word W of its width; Exec.kernel pairs the
// two once per simulated SM, so no phase branches on precision. Every
// thread quantizes value by value through core's per-value quantizer.

func quantize[T core.Float, W bits.Word](p *core.Params, src []T, dst []W, t, step int) {
	for i := t; i < len(src); i += step {
		dst[i] = core.EncodeValue[T, W](p, src[i])
	}
}

func dequantize[T core.Float, W bits.Word](p *core.Params, src []W, dst []T, t, step int) {
	for i := t; i < len(dst); i += step {
		dst[i] = core.DecodeValue[T](p, src[i])
	}
}

func store[W bits.Word](src []W, dst []byte, t, step int) {
	size := bits.Width[W]() / 8
	for i := t; i < len(src); i += step {
		bits.PutLE(dst[i*size:], src[i])
	}
}

func load[W bits.Word](src []byte, dst []W, t, step int) {
	size := bits.Width[W]() / 8
	for i := t; i < len(dst); i += step {
		dst[i] = bits.LE[W](src[i*size:])
	}
}

// rawParams quantizes every value to its unmodified IEEE bit pattern, so
// quantize and dequantize with it are the raw fallback's serialisation.
var rawParams = core.Params{Raw: true}

// byteMem is the byte-granular part of a block's shared memory. The
// zero-byte elimination phases run on it for both precisions.
type byteMem struct {
	data   [core.ChunkBytes]byte
	bm     [core.BitmapLevels][]byte // backing for the bitmap levels, full-chunk size
	counts []int
	out    [core.MaxChunkPayload]byte
}

// shared models the shared-memory working set of one thread block
// compressing or decompressing a chunk. The GPU code keeps almost all
// intermediate data in shared memory (§III.E); each simulated SM (worker)
// owns one instance. The word buffers are sized at construction because an
// array length cannot depend on W.
type shared[T core.Float, W bits.Word] struct {
	byteMem
	quant []W
	resid []W

	// Tracing state: rec is nil when disabled; track is the simulated SM's
	// lane.
	rec   *obs.Recorder
	track int32
}

func newShared[T core.Float, W bits.Word](threads int, rec *obs.Recorder, track int32) *shared[T, W] {
	words := core.ChunkBytes * 8 / bits.Width[W]()
	s := &shared[T, W]{quant: make([]W, words), resid: make([]W, words), rec: rec, track: track}
	s.counts = make([]int, threads)
	n := core.ChunkBytes
	for k := range s.bm {
		n = core.BitmapLen(n)
		s.bm[k] = make([]byte, n)
	}
	return s
}

// levels returns data[:p] followed by its bitmap hierarchy sized for p
// payload bytes: lv[k+1] is the bitmap over lv[k], so the outermost bitmap
// comes last.
func (m *byteMem) levels(p int) (lv [core.BitmapLevels + 1][]byte) {
	lv[0] = m.data[:p]
	for k := range m.bm {
		lv[k+1] = m.bm[k][:core.BitmapLen(len(lv[k]))]
	}
	return lv
}

// encode runs the fused compression kernel for one chunk and returns the
// payload (aliasing s.out) and the raw flag. It reproduces, phase for
// phase, the CUDA pipeline: quantize, delta+negabinary, pad,
// warp-granularity bit shuffle, byte serialization, bitmap construction,
// and scan-based compaction.
func (s *shared[T, W]) encode(b *Block, p *core.Params, src []T, unit int32) ([]byte, bool) {
	rec := s.rec
	tm := rec.Now()
	n, nt := len(src), b.Threads
	padded := core.PaddedWords[W](n)
	size := n * bits.Width[W]() / 8

	// Phase 1: quantization — embarrassingly parallel (§III.E).
	b.ForEach(func(t int) { quantize(p, src, s.quant, t, nt) })
	tm = rec.StageSpan(obs.StageQuantize, s.track, unit, tm)
	// Phase 2: difference coding + negabinary. Each thread reads two
	// neighboring quantized words; the separate output buffer removes the
	// sequential dependence.
	b.ForEach(func(t int) {
		for i := t; i < padded; i += nt {
			switch {
			case i >= n:
				s.resid[i] = 0
			case i == 0:
				s.resid[i] = bits.ToNegabinary(s.quant[0])
			default:
				s.resid[i] = bits.ToNegabinary(s.quant[i] - s.quant[i-1])
			}
		}
	})
	tm = rec.StageSpan(obs.StageDelta, s.track, unit, tm)
	// Phase 3: bit shuffle at warp granularity.
	s.shuffle(b, padded)
	tm = rec.StageSpan(obs.StageShuffle, s.track, unit, tm)
	// Phase 4: byte serialization of the shuffled words.
	b.ForEach(func(t int) { store(s.resid[:padded], s.data[:], t, nt) })
	// Phases 5–6: zero-byte elimination.
	pos := s.eliminate(b, padded*bits.Width[W]()/8)

	if pos >= size {
		// Incompressible chunk: emit the original values (raw fallback).
		b.ForEach(func(t int) {
			quantize(&rawParams, src, s.quant, t, nt)
			store(s.quant[:n], s.out[:], t, nt)
		})
		rec.StageSpanOutcome(obs.StageEncode, s.track, unit, tm, obs.OutcomeRaw, int64(size), int64(size))
		return s.out[:size], true
	}
	rec.StageSpanOutcome(obs.StageEncode, s.track, unit, tm, obs.OutcomeCompressed, int64(size), int64(pos))
	return s.out[:pos], false
}

// decode runs the decompression kernel for one chunk.
func (s *shared[T, W]) decode(b *Block, p *core.Params, payload []byte, raw bool, dst []T, unit int32) error {
	rec := s.rec
	tm := rec.Now()
	n, nt := len(dst), b.Threads
	size := bits.Width[W]() / 8
	if raw {
		if len(payload) != n*size {
			return core.ErrCorrupt
		}
		b.ForEach(func(t int) {
			load(payload, s.quant[:n], t, nt)
			dequantize(&rawParams, s.quant, dst, t, nt)
		})
	} else {
		padded := core.PaddedWords[W](n)
		if err := s.expand(b, payload, padded*size); err != nil {
			return err
		}
		// Inverse bit shuffle (warp granularity).
		b.ForEach(func(t int) { load(s.data[:], s.resid[:padded], t, nt) })
		s.shuffle(b, padded)
		// Inverse difference coding: negabinary back to residuals, then
		// the block-wide prefix sum the paper notes the decoder needs
		// (§III.E).
		b.ForEach(func(t int) {
			for i := t; i < n; i += nt {
				s.quant[i] = bits.FromNegabinary(s.resid[i])
			}
		})
		BlockInclusiveScan(s.quant[:n])
		b.ForEach(func(t int) { dequantize(p, s.quant, dst, t, nt) })
	}
	rec.StageSpanOutcome(obs.StageDecode, s.track, unit, tm, outcome(raw), int64(len(payload)), int64(n)*int64(size))
	return nil
}

// shuffle bit-shuffles the first padded residual words in place. Each warp
// transposes whole groups of one word's width with shuffle-instruction
// exchanges; a double-precision group spans a warp pair's 64 lanes (the
// paper's "chunk of 32 or 64 values" per warp, §III.E).
func (s *shared[T, W]) shuffle(b *Block, padded int) {
	g := bits.Width[W]()
	warps := (b.Threads + 31) / 32
	b.ForEachWarp(func(w int) {
		for i := w * g; i < padded; i += warps * g {
			TransposeWarpShuffle(s.resid[i : i+g])
		}
	})
}

// rank counts the bits of bm set in each thread's stripe of n positions
// and exclusive-scans the counts across the block, leaving in counts[t]
// the number of set bits before thread t's stripe. It returns the total.
func (m *byteMem) rank(b *Block, bm []byte, n int) int {
	nt := b.Threads
	b.ForEach(func(t int) {
		lo, hi := stripe(n, nt, t)
		c := 0
		for i := lo; i < hi; i++ {
			if bm[i>>3]&(1<<uint(i&7)) != 0 {
				c++
			}
		}
		m.counts[t] = c
	})
	return BlockExclusiveScan(m.counts)
}

// eliminate runs zero-byte elimination with iterated bitmap compression
// over data[:p] and returns the payload length written to out.
func (m *byteMem) eliminate(b *Block, p int) int {
	nt := b.Threads
	lv := m.levels(p)
	// Phase 5: bitmap construction. The first bitmap flags the nonzero
	// payload bytes; each later one flags the bytes of its level that
	// differ from their predecessor.
	for k := 1; k < len(lv); k++ {
		level, bm, zeroTest := lv[k-1], lv[k], k == 1
		b.ForEach(func(t int) {
			for j := t; j < len(bm); j += nt {
				var x byte
				for bit := 0; bit < 8 && j*8+bit < len(level); bit++ {
					i := j*8 + bit
					if zeroTest && level[i] != 0 || !zeroTest && (i == 0 || level[i] != level[i-1]) {
						x |= 1 << uint(bit)
					}
				}
				bm[j] = x
			}
		})
	}

	// Phase 6: emission. The outermost bitmap is copied verbatim; each
	// inner level is compacted with a block-wide exclusive scan over
	// per-thread counts (§III.E).
	top := lv[core.BitmapLevels]
	pos := len(top)
	b.ForEach(func(t int) {
		for j := t; j < len(top); j += nt {
			m.out[j] = top[j]
		}
	})
	for k := core.BitmapLevels - 1; k >= 0; k-- {
		level, bm := lv[k], lv[k+1]
		total := m.rank(b, bm, len(level))
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), nt, t)
			o := pos + m.counts[t]
			for i := lo; i < hi; i++ {
				if bm[i>>3]&(1<<uint(i&7)) != 0 {
					m.out[o] = level[i]
					o++
				}
			}
		})
		pos += total
	}
	return pos
}

// expand reconstructs data[:p] from a compressed payload, inverting
// eliminate. Each level is rebuilt rank-then-gather: the exclusive scan of
// the per-thread popcounts over its bitmap locates every surviving byte in
// the payload.
func (m *byteMem) expand(b *Block, payload []byte, p int) error {
	nt := b.Threads
	lv := m.levels(p)
	top := lv[core.BitmapLevels]
	pos := len(top)
	if len(payload) < pos {
		return core.ErrCorrupt
	}
	copy(top, payload[:pos])
	for k := core.BitmapLevels - 1; k >= 0; k-- {
		level, bm, src := lv[k], lv[k+1], payload[pos:]
		total := m.rank(b, bm, len(level))
		if total > len(src) {
			return core.ErrCorrupt
		}
		zeroFill := k == 0 // payload level: cleared bits decode to zero bytes
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), nt, t)
			rank := m.counts[t] // set bits before position lo
			for i := lo; i < hi; i++ {
				switch {
				case bm[i>>3]&(1<<uint(i&7)) != 0:
					level[i] = src[rank]
					rank++
				case zeroFill || rank == 0:
					level[i] = 0
				default:
					level[i] = src[rank-1] // repeat the last survivor
				}
			}
		})
		pos += total
	}
	if pos != len(payload) {
		return core.ErrCorrupt
	}
	return nil
}
