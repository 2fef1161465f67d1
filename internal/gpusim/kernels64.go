package gpusim

import (
	"encoding/binary"

	"pfpl/internal/bits"
	"pfpl/internal/core"
	"pfpl/internal/obs"
)

// shared64 is the double-precision shared-memory working set; the word size
// of every stage except the byte-granularity final one doubles (§III.D).
type shared64 struct {
	quant  [core.ChunkWords64]uint64
	resid  [core.ChunkWords64]uint64
	data   [core.ChunkBytes]byte
	bm1    [core.ChunkBytes / 8]byte
	bm2    [core.ChunkBytes / 64]byte
	bm3    [core.ChunkBytes / 512]byte
	bm4    [core.ChunkBytes / 4096]byte
	counts []int
	out    [core.MaxChunkPayload]byte

	// Tracing state; see shared32.
	rec   *obs.Recorder
	track int32
	unit  int32
}

func newShared64(threads int) *shared64 {
	return &shared64{counts: make([]int, threads)}
}

func (s *shared64) levels(p int) [][]byte {
	n1 := core.BitmapLen(p)
	n2 := core.BitmapLen(n1)
	n3 := core.BitmapLen(n2)
	n4 := core.BitmapLen(n3)
	return [][]byte{s.bm1[:n1], s.bm2[:n2], s.bm3[:n3], s.bm4[:n4]}
}

func encodeChunk64(b *Block, p *core.Params, src []float64, s *shared64) (int, bool) {
	rec := s.rec
	tm := rec.Now()
	n := len(src)
	padded := core.PaddedWords64(n)
	T := b.Threads

	b.ForEach(func(t int) {
		for i := t; i < n; i += T {
			s.quant[i] = p.EncodeValue64(src[i])
		}
	})
	tm = rec.StageSpan(obs.StageQuantize, s.track, s.unit, tm)
	b.ForEach(func(t int) {
		for i := t; i < padded; i += T {
			switch {
			case i >= n:
				s.resid[i] = 0
			case i == 0:
				s.resid[i] = bits.ToNegabinary64(s.quant[0])
			default:
				s.resid[i] = bits.ToNegabinary64(s.quant[i] - s.quant[i-1])
			}
		}
	})
	tm = rec.StageSpan(obs.StageDelta, s.track, s.unit, tm)
	// Warp-pair granularity: two warps cooperate on each 64-word group
	// (the paper's "chunk of 32 or 64 values" per warp, §III.E).
	warps := (T + 31) / 32
	groups := padded / 64
	b.ForEachWarp(func(w int) {
		for g := w; g < groups; g += warps {
			TransposeWarpShuffle64((*[64]uint64)(s.resid[g*64 : g*64+64]))
		}
	})
	tm = rec.StageSpan(obs.StageShuffle, s.track, s.unit, tm)
	P := padded * 8
	b.ForEach(func(t int) {
		for i := t; i < padded; i += T {
			binary.LittleEndian.PutUint64(s.data[i*8:], s.resid[i])
		}
	})

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

	if pos >= n*8 {
		b.ForEach(func(t int) {
			for i := t; i < n; i += T {
				binary.LittleEndian.PutUint64(s.out[i*8:], f64bits(src[i]))
			}
		})
		rec.StageSpanOutcome(obs.StageEncode, s.track, s.unit, tm, obs.OutcomeRaw, int64(n)*8, int64(n)*8)
		return n * 8, true
	}
	rec.StageSpanOutcome(obs.StageEncode, s.track, s.unit, tm, obs.OutcomeCompressed, int64(n)*8, int64(pos))
	return pos, false
}

func decodeChunk64(b *Block, p *core.Params, payload []byte, raw bool, dst []float64, s *shared64) error {
	n := len(dst)
	T := b.Threads
	if raw {
		if len(payload) != n*8 {
			return core.ErrCorrupt
		}
		b.ForEach(func(t int) {
			for i := t; i < n; i += T {
				dst[i] = f64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
			}
		})
		return nil
	}
	padded := core.PaddedWords64(n)
	P := padded * 8
	lv := s.levels(P)

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
		zeroFill := k < 0
		b.ForEach(func(t int) {
			lo, hi := stripe(len(level), T, t)
			rank := s.counts[t]
			for i := lo; i < hi; i++ {
				if bm[i>>3]&(1<<uint(i&7)) != 0 {
					level[i] = src[rank]
					rank++
				} else if zeroFill {
					level[i] = 0
				} else if rank > 0 {
					level[i] = src[rank-1]
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

	b.ForEach(func(t int) {
		for i := t; i < padded; i += T {
			s.resid[i] = binary.LittleEndian.Uint64(s.data[i*8:])
		}
	})
	warps := (T + 31) / 32
	groups := padded / 64
	b.ForEachWarp(func(w int) {
		for g := w; g < groups; g += warps {
			TransposeWarpShuffle64((*[64]uint64)(s.resid[g*64 : g*64+64]))
		}
	})
	b.ForEach(func(t int) {
		for i := t; i < n; i += T {
			s.quant[i] = bits.FromNegabinary64(s.resid[i])
		}
	})
	BlockInclusiveScanU64(s.quant[:n])
	b.ForEach(func(t int) {
		for i := t; i < n; i += T {
			dst[i] = p.DecodeValue64(s.quant[i])
		}
	})
	return nil
}
