package gpusim

import (
	"encoding/binary"

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

// shared32 models the shared-memory working set of one thread block
// compressing or decompressing a single-precision chunk. The GPU code keeps
// almost all intermediate data in shared memory (§III.E); each simulated SM
// (worker) owns one instance.
type shared32 struct {
	quant  [core.ChunkWords32]uint32
	resid  [core.ChunkWords32]uint32
	data   [core.ChunkBytes]byte
	bm1    [core.ChunkBytes / 8]byte
	bm2    [core.ChunkBytes / 64]byte
	bm3    [core.ChunkBytes / 512]byte
	bm4    [core.ChunkBytes / 4096]byte
	counts []int
	out    [core.MaxChunkPayload]byte

	// Tracing state: rec is nil when disabled; track is the simulated SM's
	// lane and unit the chunk (block) index being processed.
	rec   *obs.Recorder
	track int32
	unit  int32
}

func newShared32(threads int) *shared32 {
	return &shared32{counts: make([]int, threads)}
}

// levels returns the bitmap buffers sized for p payload bytes, innermost
// first.
func (s *shared32) levels(p int) [][]byte {
	n1 := core.BitmapLen(p)
	n2 := core.BitmapLen(n1)
	n3 := core.BitmapLen(n2)
	n4 := core.BitmapLen(n3)
	return [][]byte{s.bm1[:n1], s.bm2[:n2], s.bm3[:n3], s.bm4[:n4]}
}

// encodeChunk32 runs the fused compression kernel for one chunk and returns
// the payload length (written to s.out) and the raw flag. It reproduces,
// phase for phase, the CUDA pipeline: quantize, delta+negabinary, pad,
// warp-granularity bit shuffle, byte serialization, bitmap construction,
// and scan-based compaction.
func encodeChunk32(b *Block, p *core.Params, src []float32, s *shared32) (int, bool) {
	rec := s.rec
	tm := rec.Now()
	n := len(src)
	padded := core.PaddedWords32(n)
	T := b.Threads

	// Phase 1: quantization — embarrassingly parallel (§III.E).
	b.ForEach(func(t int) {
		for i := t; i < n; i += T {
			s.quant[i] = p.EncodeValue32(src[i])
		}
	})
	tm = rec.StageSpan(obs.StageQuantize, s.track, s.unit, tm)
	// Phase 2: difference coding + negabinary. Each thread reads two
	// neighboring quantized words; the separate output buffer removes the
	// sequential dependence.
	b.ForEach(func(t int) {
		for i := t; i < padded; i += T {
			switch {
			case i >= n:
				s.resid[i] = 0
			case i == 0:
				s.resid[i] = bits.ToNegabinary32(s.quant[0])
			default:
				s.resid[i] = bits.ToNegabinary32(s.quant[i] - s.quant[i-1])
			}
		}
	})
	tm = rec.StageSpan(obs.StageDelta, s.track, s.unit, tm)
	// Phase 3: bit shuffle at warp granularity — each warp transposes
	// 32-word groups with shuffle-instruction exchanges.
	warps := (T + 31) / 32
	groups := padded / 32
	b.ForEachWarp(func(w int) {
		for g := w; g < groups; g += warps {
			TransposeWarpShuffle32((*[32]uint32)(s.resid[g*32 : g*32+32]))
		}
	})
	tm = rec.StageSpan(obs.StageShuffle, s.track, s.unit, tm)
	// Phase 4: byte serialization of the shuffled words.
	P := padded * 4
	b.ForEach(func(t int) {
		for i := t; i < padded; i += T {
			binary.LittleEndian.PutUint32(s.data[i*4:], s.resid[i])
		}
	})

	// Phase 5: zero-byte elimination with iterated bitmap compression.
	lv := s.levels(P)
	prevLevel := s.data[:P]
	for k := 0; k < core.BitmapLevels; k++ {
		bm := lv[k]
		level := prevLevel
		zeroTest := k == 0
		b.ForEach(func(t int) {
			for j := t; j < len(bm); j += T {
				var x byte
				for bit := 0; bit < 8; bit++ {
					i := j*8 + bit
					if i >= len(level) {
						break
					}
					if zeroTest {
						if level[i] != 0 {
							x |= 1 << uint(bit)
						}
					} else if i == 0 || level[i] != level[i-1] {
						x |= 1 << uint(bit)
					}
				}
				bm[j] = x
			}
		})
		prevLevel = bm
	}

	// Phase 6: emission. The outermost bitmap is copied verbatim; each
	// inner section is compacted with a block-wide exclusive scan over
	// per-thread counts (§III.E).
	pos := len(lv[core.BitmapLevels-1])
	b.ForEach(func(t int) {
		for j := t; j < pos; j += T {
			s.out[j] = lv[core.BitmapLevels-1][j]
		}
	})
	for k := core.BitmapLevels - 2; k >= -1; k-- {
		var level []byte
		var bm []byte
		if k >= 0 {
			level = lv[k]
			bm = lv[k+1]
		} else {
			level = s.data[:P]
			bm = lv[0]
		}
		// Count the survivors in each thread's contiguous range.
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), T, t)
			c := 0
			for i := lo; i < hi; i++ {
				if bm[i>>3]&(1<<uint(i&7)) != 0 {
					c++
				}
			}
			s.counts[t] = c
		})
		total := BlockExclusiveScanInt(s.counts)
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), T, t)
			o := pos + s.counts[t]
			for i := lo; i < hi; i++ {
				if bm[i>>3]&(1<<uint(i&7)) != 0 {
					s.out[o] = level[i]
					o++
				}
			}
		})
		pos += total
	}

	if pos >= n*4 {
		// Incompressible chunk: emit the original values (raw fallback).
		b.ForEach(func(t int) {
			for i := t; i < n; i += T {
				binary.LittleEndian.PutUint32(s.out[i*4:], f32bits(src[i]))
			}
		})
		rec.StageSpanOutcome(obs.StageEncode, s.track, s.unit, tm, obs.OutcomeRaw, int64(n)*4, int64(n)*4)
		return n * 4, true
	}
	rec.StageSpanOutcome(obs.StageEncode, s.track, s.unit, tm, obs.OutcomeCompressed, int64(n)*4, int64(pos))
	return pos, false
}

// decodeChunk32 runs the decompression kernel for one chunk.
func decodeChunk32(b *Block, p *core.Params, payload []byte, raw bool, dst []float32, s *shared32) error {
	n := len(dst)
	T := b.Threads
	if raw {
		if len(payload) != n*4 {
			return core.ErrCorrupt
		}
		b.ForEach(func(t int) {
			for i := t; i < n; i += T {
				dst[i] = f32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
			}
		})
		return nil
	}
	padded := core.PaddedWords32(n)
	P := padded * 4
	lv := s.levels(P)

	// Reconstruct the bitmap hierarchy and then the payload bytes. Each
	// expansion is rank-then-gather: an inclusive popcount scan over the
	// bitmap locates every surviving byte in the stream.
	pos := len(lv[core.BitmapLevels-1])
	if len(payload) < pos {
		return core.ErrCorrupt
	}
	copy(lv[core.BitmapLevels-1], payload[:pos])
	for k := core.BitmapLevels - 2; k >= -1; k-- {
		var level []byte
		var bm []byte
		if k >= 0 {
			level = lv[k]
			bm = lv[k+1]
		} else {
			level = s.data[:P]
			bm = lv[0]
		}
		src := payload[pos:]
		// Per-thread popcounts over contiguous ranges, then a block scan.
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), T, t)
			c := 0
			for i := lo; i < hi; i++ {
				if bm[i>>3]&(1<<uint(i&7)) != 0 {
					c++
				}
			}
			s.counts[t] = c
		})
		total := BlockExclusiveScanInt(s.counts)
		if total > len(src) {
			return core.ErrCorrupt
		}
		zeroFill := k < 0 // payload level: cleared bits decode to zero bytes
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), T, t)
			rank := s.counts[t] // set bits before position lo
			for i := lo; i < hi; i++ {
				if bm[i>>3]&(1<<uint(i&7)) != 0 {
					level[i] = src[rank]
					rank++
				} else if zeroFill {
					level[i] = 0
				} else if rank > 0 {
					level[i] = src[rank-1] // repeat the last survivor
				} else {
					level[i] = 0
				}
			}
		})
		pos += total
	}
	if pos != len(payload) {
		return core.ErrCorrupt
	}

	// Inverse bit shuffle (warp granularity).
	b.ForEach(func(t int) {
		for i := t; i < padded; i += T {
			s.resid[i] = binary.LittleEndian.Uint32(s.data[i*4:])
		}
	})
	warps := (T + 31) / 32
	groups := padded / 32
	b.ForEachWarp(func(w int) {
		for g := w; g < groups; g += warps {
			TransposeWarpShuffle32((*[32]uint32)(s.resid[g*32 : g*32+32]))
		}
	})
	// Inverse difference coding: negabinary back to residuals, then the
	// block-wide prefix sum the paper notes the decoder needs (§III.E).
	b.ForEach(func(t int) {
		for i := t; i < n; i += T {
			s.quant[i] = bits.FromNegabinary32(s.resid[i])
		}
	})
	BlockInclusiveScanU32(s.quant[:n])
	// Dequantize.
	b.ForEach(func(t int) {
		for i := t; i < n; i += T {
			dst[i] = p.DecodeValue32(s.quant[i])
		}
	})
	return nil
}
