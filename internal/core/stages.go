package core

import (
	"encoding/binary"
	mbits "math/bits"

	"pfpl/internal/bits"
	"pfpl/internal/core/ref"
)

// Each lossless stage below has one implementation: the word-parallel fast
// path. The scalar seed loops live on in internal/core/ref as the
// executable specification and test oracle; the differential suite
// (ref_test.go) and the FuzzZeroElimFastPath / FuzzDeltaNegaRoundtrip
// fuzzers pin the two bit-identical.

// Stage 1: difference coding with negabinary residuals (paper §III.D,
// Fig. 3). Each word is replaced by itself minus its predecessor (wrapping
// integer subtraction on the raw words), and the residual is converted to
// base -2 so that both small positive and small negative residuals have
// many leading zero bits.

// DeltaNegaForward transforms a in place. The forward transform has no
// loop-carried dependence — residual i needs only the loaded words i and
// i-1 — so an eight-wide stride lets all eight subtract+negabinary
// conversions retire independently instead of serializing on the previous
// iteration's store.
//
//pfpl:kernel
//pfpl:hotpath
func DeltaNegaForward[W bits.Word](a []W) {
	prev := W(0)
	i := 0
	for ; i+8 <= len(a); i += 8 {
		w0, w1, w2, w3 := a[i], a[i+1], a[i+2], a[i+3]
		w4, w5, w6, w7 := a[i+4], a[i+5], a[i+6], a[i+7]
		a[i] = bits.ToNegabinary(w0 - prev)
		a[i+1] = bits.ToNegabinary(w1 - w0)
		a[i+2] = bits.ToNegabinary(w2 - w1)
		a[i+3] = bits.ToNegabinary(w3 - w2)
		a[i+4] = bits.ToNegabinary(w4 - w3)
		a[i+5] = bits.ToNegabinary(w5 - w4)
		a[i+6] = bits.ToNegabinary(w6 - w5)
		a[i+7] = bits.ToNegabinary(w7 - w6)
		prev = w7
	}
	for ; i < len(a); i++ {
		w := a[i]
		a[i] = bits.ToNegabinary(w - prev)
		prev = w
	}
}

// DeltaNegaInverse inverts DeltaNegaForward in place. The inverse is a
// prefix sum, so the running total is inherently serial — but the four
// negabinary decodes and the partial-sum tree are not, leaving one add on
// the carried chain per four elements instead of four.
//
//pfpl:kernel
//pfpl:hotpath
func DeltaNegaInverse[W bits.Word](a []W) {
	prev := W(0)
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := bits.FromNegabinary(a[i])
		d1 := bits.FromNegabinary(a[i+1])
		d2 := bits.FromNegabinary(a[i+2])
		d3 := bits.FromNegabinary(a[i+3])
		s01 := d0 + d1
		a[i] = prev + d0
		a[i+1] = prev + s01
		a[i+2] = prev + s01 + d2
		prev += s01 + d2 + d3
		a[i+3] = prev
	}
	for ; i < len(a); i++ {
		prev += bits.FromNegabinary(a[i])
		a[i] = prev
	}
}

// DeltaNegaForward32 is DeltaNegaForward on 32-bit words.
func DeltaNegaForward32(a []uint32) { DeltaNegaForward(a) }

// DeltaNegaInverse32 is DeltaNegaInverse on 32-bit words.
func DeltaNegaInverse32(a []uint32) { DeltaNegaInverse(a) }

// DeltaNegaForward64 is DeltaNegaForward on 64-bit words.
func DeltaNegaForward64(a []uint64) { DeltaNegaForward(a) }

// DeltaNegaInverse64 is DeltaNegaInverse on 64-bit words.
func DeltaNegaInverse64(a []uint64) { DeltaNegaInverse(a) }

// Stage 2: bit shuffling (paper §III.D, Fig. 4). Words are processed in
// warp-sized groups of 32 (64 for double precision); within each group the
// bit matrix is transposed so that output word k collects bit k of every
// input word. Zero bit columns, which the negabinary residuals produce in
// abundance, thereby become whole zero words. len(a) must be a multiple of
// the group size; the chunk codec pads with zero words beforehand.

// BitShuffle32 transposes each 32-word group of a in place. It is an
// involution, so it also serves as the inverse transform.
//
//pfpl:kernel
//pfpl:hotpath
func BitShuffle32(a []uint32) {
	for i := 0; i+32 <= len(a); i += 32 {
		bits.Transpose32((*[32]uint32)(a[i : i+32]))
	}
}

// BitShuffle64 transposes each 64-word group of a in place (involution).
//
//pfpl:kernel
//pfpl:hotpath
func BitShuffle64(a []uint64) {
	for i := 0; i+64 <= len(a); i += 64 {
		bits.Transpose64((*[64]uint64)(a[i : i+64]))
	}
}

// ShufflePack32 bit-shuffles src like BitShuffle32 and writes the result
// to dst as little-endian bytes in the same pass, leaving src untouched:
// each 32-word group is loaded two rows to a 64-bit word, transposed by
// bits.TransposePairs32 in registers, and stored eight bytes at a time.
// len(src) must be a multiple of 32 and len(dst) at least 4*len(src).
//
//pfpl:kernel
//pfpl:hotpath
func ShufflePack32(dst []byte, src []uint32) {
	dst = dst[:len(src)*4]
	for i := 0; i+32 <= len(src); i += 32 {
		g := (*[32]uint32)(src[i : i+32])
		var x [16]uint64
		for k := range x {
			x[k] = uint64(g[2*k]) | uint64(g[2*k+1])<<32
		}
		bits.TransposePairs32(&x)
		out := (*[128]byte)(dst[i*4 : i*4+128])
		for k, w := range x {
			binary.LittleEndian.PutUint64(out[k*8:], w)
		}
	}
}

// UnpackShuffle32 inverts ShufflePack32: it reads len(dst) little-endian
// words from src eight bytes at a time, transposes each 32-word group in
// registers, and writes the unshuffled words to dst. len(dst) must be a
// multiple of 32 and len(src) at least 4*len(dst).
//
//pfpl:kernel
//pfpl:hotpath
func UnpackShuffle32(dst []uint32, src []byte) {
	src = src[:len(dst)*4]
	for i := 0; i+32 <= len(dst); i += 32 {
		in := (*[128]byte)(src[i*4 : i*4+128])
		var x [16]uint64
		for k := range x {
			x[k] = binary.LittleEndian.Uint64(in[k*8:])
		}
		bits.TransposePairs32(&x)
		g := (*[32]uint32)(dst[i : i+32])
		for k, w := range x {
			g[2*k] = uint32(w) //pfpl:ignore intwidth deliberate split: the low half is row 2k
			g[2*k+1] = uint32(w >> 32)
		}
	}
}

// ShufflePack64 is the double-precision counterpart of ShufflePack32: each
// 64-word group is copied to a local block, transposed by bits.Transpose64
// and stored as little-endian bytes. len(src) must be a multiple of 64 and
// len(dst) at least 8*len(src).
//
//pfpl:kernel
//pfpl:hotpath
func ShufflePack64(dst []byte, src []uint64) {
	dst = dst[:len(src)*8]
	for i := 0; i+64 <= len(src); i += 64 {
		x := *(*[64]uint64)(src[i : i+64])
		bits.Transpose64(&x)
		out := (*[512]byte)(dst[i*8 : i*8+512])
		for k, w := range x {
			binary.LittleEndian.PutUint64(out[k*8:], w)
		}
	}
}

// UnpackShuffle64 inverts ShufflePack64. len(dst) must be a multiple of 64
// and len(src) at least 8*len(dst).
//
//pfpl:kernel
//pfpl:hotpath
func UnpackShuffle64(dst []uint64, src []byte) {
	src = src[:len(dst)*8]
	for i := 0; i+64 <= len(dst); i += 64 {
		in := (*[512]byte)(src[i*8 : i*8+512])
		var x [64]uint64
		for k := range x {
			x[k] = binary.LittleEndian.Uint64(in[k*8:])
		}
		bits.Transpose64(&x)
		*(*[64]uint64)(dst[i : i+64]) = x
	}
}

// shufflePack and unpackShuffle run the shuffle-pack kernel of W's width
// for the generic chunk codec. The fast kernels are different algorithms
// at the two widths, so they stay two functions; the type switch picks one
// per chunk, and its interface value does not escape, so it allocates
// nothing (the ZeroAllocs guards pin this).
func shufflePack[W bits.Word](dst []byte, src []W) {
	switch src := any(src).(type) {
	case []uint32:
		ShufflePack32(dst, src)
	case []uint64:
		ShufflePack64(dst, src)
	}
}

func unpackShuffle[W bits.Word](dst []W, src []byte) {
	switch dst := any(dst).(type) {
	case []uint32:
		UnpackShuffle32(dst, src)
	case []uint64:
		UnpackShuffle64(dst, src)
	}
}

// Stage 3: zero-byte elimination (paper §III.D, Fig. 5). A bitmap marks the
// nonzero bytes of the input; zero bytes are dropped. Because the bitmap is
// substantial overhead, it is itself compressed through repeat-byte
// elimination — a cleared bit in the next-level bitmap means the byte equals
// its predecessor — iterated bitmapLevels times, shrinking 8x per level.
const bitmapLevels = 4

// BitmapLevels is the number of bitmap-compression iterations, exported for
// the GPU-simulator kernels which must reproduce the identical layout.
const BitmapLevels = bitmapLevels

// The layout constants shared with the scalar reference must agree; a drift
// in either direction fails to compile.
var _ [1]struct{} = [1 + bitmapLevels - ref.BitmapLevels]struct{}{}
var _ [1]struct{} = [1 + ref.BitmapLevels - bitmapLevels]struct{}{}

// BitmapLen returns the number of bitmap bytes covering n payload bytes.
//
//pfpl:kernel
//pfpl:hotpath
func BitmapLen(n int) int { return (n + 7) / 8 }

// SWAR constants for the byte-granular kernels: every lane trick below
// treats a uint64 as eight byte lanes.
const (
	swarLow7   = 0x7F7F7F7F7F7F7F7F // low seven bits of every lane
	swarHigh   = 0x8080808080808080 // the per-lane high bit
	swarGather = 0x0002040810204081 // bits at 7k, k=0..7: movemask multiplier
)

// nonzeroByteMask returns a byte whose bit i is set iff byte lane i of w is
// nonzero. Two classic tricks back to back:
//
//   - Exact zero-lane detection: ((w & 0x7F7F…) + 0x7F7F…) | w has the high
//     bit of lane i set iff lane i is nonzero. Unlike the cheaper
//     (w-0x0101…)&^w&0x8080… form this has no false positives from borrow
//     propagation — per-lane sums cannot carry (0x7F+0x7F < 0x100).
//   - Movemask by multiply: with the flags isolated at bit 8i+7, multiplying
//     by 0x0002040810204081 (bits at 7k) slides flag i to bit 56+i and no
//     two partial products collide, so the top byte is the gathered mask —
//     the SWAR analog of the GPU's __ballot_sync vote.
func nonzeroByteMask(w uint64) byte {
	nz := (((w & swarLow7) + swarLow7) | w) & swarHigh
	return byte((nz * swarGather) >> 56)
}

// ZeroElimEncode appends the encoded form of data to out and returns the
// extended slice. Layout, outermost level first:
//
//	bm[levels] || nonrep(bm[levels-1]) || ... || nonrep(bm[1]) || nonzero(data)
//
// where bm[1] is the zero-byte bitmap of data and bm[k+1] is the
// repeat-byte bitmap of bm[k].
//
//pfpl:kernel
func ZeroElimEncode(data []byte, out []byte) []byte {
	return zeroElimEncode(data, out, carveBitmaps(make([]byte, bitmapsLen(len(data))), len(data)))
}

// ZeroElimDecode decodes n payload bytes from src into dst (len(dst) == n)
// and returns the number of bytes of src consumed.
//
//pfpl:kernel
func ZeroElimDecode(src []byte, dst []byte) (int, error) {
	return zeroElimDecode(src, dst, carveBitmaps(make([]byte, bitmapsLen(len(dst))), len(dst)))
}

// ZeroElimScratch holds the bitmap levels of a full chunk (ChunkBytes of
// shuffled payload; each level shrinks 8x) so that executor kernels and
// cmd/benchcore can drive the zero-elimination stage allocation-free. The
// size hard-codes bitmapLevels == 4, which the assertions below pin.
type ZeroElimScratch struct {
	bms [ChunkBytes/8 + ChunkBytes/64 + ChunkBytes/512 + ChunkBytes/4096]byte
}

var _ [1]struct{} = [bitmapLevels - 3]struct{}{} // bitmapLevels >= 4
var _ [1]struct{} = [5 - bitmapLevels]struct{}{} // bitmapLevels <= 4

// ZeroElimEncodeScratch is ZeroElimEncode with the bitmap levels built in
// caller-owned scratch; len(data) must not exceed ChunkBytes.
//
//pfpl:hotpath
func ZeroElimEncodeScratch(data []byte, out []byte, s *ZeroElimScratch) []byte {
	return zeroElimEncode(data, out, carveBitmaps(s.bms[:], len(data)))
}

// ZeroElimDecodeScratch is ZeroElimDecode with the bitmap levels expanded
// into caller-owned scratch; len(dst) must not exceed ChunkBytes.
//
//pfpl:hotpath
func ZeroElimDecodeScratch(src []byte, dst []byte, s *ZeroElimScratch) (int, error) {
	return zeroElimDecode(src, dst, carveBitmaps(s.bms[:], len(dst)))
}

// bitmaps is the bitmap hierarchy over one input: level 0 is the zero
// bitmap of the data and level k the repeat bitmap of level k-1.
type bitmaps [bitmapLevels][]byte

// bitmapsLen returns the total size of the bitmap hierarchy over n bytes.
func bitmapsLen(n int) int {
	total := 0
	for k := 0; k < bitmapLevels; k++ {
		n = BitmapLen(n)
		total += n
	}
	return total
}

// carveBitmaps slices the bitmap hierarchy over n bytes out of buf, which
// must hold at least bitmapsLen(n) bytes.
//
//pfpl:hotpath
func carveBitmaps(buf []byte, n int) (lv bitmaps) {
	for k := range lv {
		n = BitmapLen(n)
		lv[k], buf = buf[:n], buf[n:]
	}
	return lv
}

// zeroElimEncode is the one encoder body behind ZeroElimEncode and its
// scratch form: it builds the hierarchy in lv, emits the outermost bitmap
// raw, then the surviving bytes of each inner level selected by the bitmap
// one level up (bit i of level k+1 is set exactly when byte i of level k is
// non-repeating), and finally the nonzero payload bytes selected by
// level 0.
//
//pfpl:hotpath
func zeroElimEncode(data []byte, out []byte, lv bitmaps) []byte {
	buildZeroBitmapInto(data, lv[0])
	for k := 1; k < bitmapLevels; k++ {
		buildRepeatBitmapInto(lv[k-1], lv[k])
	}
	out = append(out, lv[bitmapLevels-1]...)
	for k := bitmapLevels - 2; k >= 0; k-- {
		out = appendSelected(out, lv[k], lv[k+1])
	}
	return appendSelected(out, data, lv[0])
}

// zeroElimDecode is the one decoder body behind ZeroElimDecode and its
// scratch form: it expands the hierarchy in lv top-down, then the payload
// from the level-0 zero bitmap.
//
//pfpl:hotpath
func zeroElimDecode(src []byte, dst []byte, lv bitmaps) (int, error) {
	top := lv[bitmapLevels-1]
	if len(src) < len(top) {
		return 0, ErrCorrupt
	}
	pos := copy(top, src)
	for k := bitmapLevels - 2; k >= 0; k-- {
		used, err := expandRepeat(lv[k+1], src[pos:], lv[k])
		if err != nil {
			return 0, err
		}
		pos += used
	}
	used, err := expandZero(lv[0], src[pos:], dst)
	if err != nil {
		return 0, err
	}
	return pos + used, nil
}

// appendSelected appends the bytes of data whose bit is set in sel — the
// byte's own bitmap one level up — to out. It replaces the seed's
// appendNonZero/appendNonRepeat byte walks: a 64-bit selector word covers 64
// data bytes at once, so all-zero words (the common case on shuffled
// residuals) skip in one compare, all-ones words become a single copy, and
// mixed words extract each survivor with a TrailingZeros64 instead of
// probing all 64 bit positions.
//
//pfpl:hotpath
func appendSelected(out []byte, data []byte, sel []byte) []byte {
	n := len(data)
	i := 0
	for ; i+64 <= n; i += 64 {
		s := binary.LittleEndian.Uint64(sel[i>>3:])
		switch s {
		case 0:
		case ^uint64(0):
			out = append(out, data[i:i+64]...)
		default:
			for m := s; m != 0; m &= m - 1 {
				out = append(out, data[i+mbits.TrailingZeros64(m)])
			}
		}
	}
	// Tail: per selector byte. Bits beyond len(data) are never set by the
	// bitmap builders, so the bit loop needs no per-byte length guard.
	for ; i < n; i += 8 {
		x := sel[i>>3]
		if x == 0xFF && i+8 <= n {
			out = append(out, data[i:i+8]...)
			continue
		}
		for m := uint(x); m != 0; m &= m - 1 {
			out = append(out, data[i+mbits.TrailingZeros(m)])
		}
	}
	return out
}

// buildZeroBitmapInto writes the zero bitmap of data into bm, which must
// have length BitmapLen(len(data)): bit i is set iff data[i] != 0. It
// classifies eight bytes per 64-bit load through the SWAR zero-byte
// detector: the fused chunk pipeline runs this over every byte of the
// stream, so word-at-a-time scanning is one of the optimizations behind
// PFPL's CPU throughput (§III.E). Each whole 8-byte group produces its
// bitmap byte in one nonzeroByteMask; no per-bit probing, no pre-clear.
//
//pfpl:hotpath
func buildZeroBitmapInto(data []byte, bm []byte) {
	n8 := len(data) &^ 7
	i := 0
	for ; i < n8; i += 8 {
		bm[i>>3] = nonzeroByteMask(binary.LittleEndian.Uint64(data[i:]))
	}
	if i < len(data) {
		var x byte
		for j := i; j < len(data); j++ {
			if data[j] != 0 {
				x |= 1 << uint(j&7)
			}
		}
		bm[i>>3] = x
	}
}

// buildRepeatBitmapInto writes the repeat bitmap of data into bm, which
// must have length BitmapLen(len(data)): bit i is set iff data[i] differs
// from data[i-1], and bit 0 is always set because the first byte has no
// predecessor. Shifting the loaded word left one lane and injecting the
// previous group's last byte aligns every byte with its predecessor, so
// the repeat test is one XOR plus the SWAR nonzero detector per eight
// bytes.
//
//pfpl:hotpath
func buildRepeatBitmapInto(data []byte, bm []byte) {
	n8 := len(data) &^ 7
	i := 0
	prev := byte(0)
	for ; i < n8; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		bm[i>>3] = nonzeroByteMask(w ^ (w<<8 | uint64(prev)))
		prev = byte(w >> 56)
	}
	if i < len(data) {
		var x byte
		for j := i; j < len(data); j++ {
			if data[j] != prev {
				x |= 1 << uint(j&7)
			}
			prev = data[j]
		}
		bm[i>>3] = x
	}
	if len(data) > 0 {
		bm[0] |= 1 // the first byte is always emitted
	}
}

// expandRepeat reconstructs dst from its repeat bitmap bm and the stream of
// non-repeating bytes at the front of src, returning bytes consumed. A
// 64-bit bitmap word dispatches 64 output bytes: all-zero words are a
// run-fill of the previous byte, all-ones words a straight copy, and mixed
// words walk only the set bits (TrailingZeros64), filling the gaps between
// them in runs.
//
//pfpl:hotpath
func expandRepeat(bm []byte, src []byte, dst []byte) (int, error) {
	n := len(dst)
	pos := 0
	prev := byte(0)
	i := 0
	for ; i+64 <= n; i += 64 {
		s := binary.LittleEndian.Uint64(bm[i>>3:])
		switch s {
		case 0:
			fillBytes(dst[i:i+64], prev)
		case ^uint64(0):
			if pos+64 > len(src) {
				return 0, ErrCorrupt
			}
			copy(dst[i:i+64], src[pos:pos+64])
			pos += 64
			prev = dst[i+63]
		default:
			if pos+mbits.OnesCount64(s) > len(src) {
				return 0, ErrCorrupt
			}
			last := i
			for m := s; m != 0; m &= m - 1 {
				p := i + mbits.TrailingZeros64(m)
				fillBytes(dst[last:p], prev)
				prev = src[pos]
				pos++
				dst[p] = prev
				last = p + 1
			}
			fillBytes(dst[last:i+64], prev)
		}
	}
	for ; i < n; i++ {
		if bm[i>>3]&(1<<uint(i&7)) != 0 {
			if pos >= len(src) {
				return 0, ErrCorrupt
			}
			prev = src[pos]
			pos++
		}
		dst[i] = prev
	}
	return pos, nil
}

// expandZero reconstructs dst from its zero bitmap bm and the stream of
// nonzero bytes at the front of src, returning bytes consumed. Like
// expandRepeat it dispatches 64 output bytes per bitmap word: all-zero
// words are a memclr, all-ones words a copy, and mixed words scatter one
// source byte per set bit after a single popcount bounds check.
//
//pfpl:hotpath
func expandZero(bm []byte, src []byte, dst []byte) (int, error) {
	n := len(dst)
	pos := 0
	i := 0
	for ; i+64 <= n; i += 64 {
		s := binary.LittleEndian.Uint64(bm[i>>3:])
		switch s {
		case 0:
			clear(dst[i : i+64])
		case ^uint64(0):
			if pos+64 > len(src) {
				return 0, ErrCorrupt
			}
			copy(dst[i:i+64], src[pos:pos+64])
			pos += 64
		default:
			if pos+mbits.OnesCount64(s) > len(src) {
				return 0, ErrCorrupt
			}
			clear(dst[i : i+64])
			for m := s; m != 0; m &= m - 1 {
				dst[i+mbits.TrailingZeros64(m)] = src[pos]
				pos++
			}
		}
	}
	for ; i < n; i++ {
		if bm[i>>3]&(1<<uint(i&7)) != 0 {
			if pos >= len(src) {
				return 0, ErrCorrupt
			}
			dst[i] = src[pos]
			pos++
		} else {
			dst[i] = 0
		}
	}
	return pos, nil
}

// fillBytes sets every byte of dst to v. The zero case lowers to the
// runtime's memclr; nonzero runs are short (gaps between non-repeating
// bitmap bytes), so a plain loop wins over cleverness.
//
//pfpl:hotpath
func fillBytes(dst []byte, v byte) {
	if v == 0 {
		clear(dst)
		return
	}
	for j := range dst {
		dst[j] = v
	}
}
