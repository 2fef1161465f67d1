// Package ref holds the portable scalar reference implementations of the
// PFPL lossless-stage kernels: delta coding with negabinary residuals, the
// warp-width bit-matrix transpose, and iterated zero-byte elimination.
//
// These are the seed implementations that walked values, bits, and bitmap
// bytes one at a time. They were moved here verbatim when internal/core grew
// word-parallel rewrites of every hot loop, and they now serve two roles:
//
//  1. Executable specification and test oracle: every fast kernel in
//     internal/core must be bit-identical to its counterpart here, pinned by
//     the differential suite (internal/core/ref_test.go) and the
//     FuzzZeroElimFastPath / FuzzDeltaNegaRoundtrip cross-check fuzzers.
//     Production code never calls this package.
//  2. Readable documentation of the format: the scalar loops state the
//     stage semantics (paper §III.D) without bit tricks in the way.
//
// Nothing here is performance-sensitive; clarity wins every trade.
package ref

import (
	"errors"

	"pfpl/internal/bits"
)

// ErrCorrupt is returned by the decode kernels on truncated or inconsistent
// input. internal/core maps it onto its own ErrCorrupt sentinel.
var ErrCorrupt = errors.New("pfpl/ref: corrupt or truncated input")

// BitmapLevels is the number of bitmap-compression iterations of the
// zero-byte-elimination stage. It must equal core.BitmapLevels; the
// differential suite asserts the match at compile time.
const BitmapLevels = 4

// BitmapLen returns the number of bitmap bytes covering n payload bytes.
func BitmapLen(n int) int { return (n + 7) / 8 }

// --- Stage 1: difference coding with negabinary residuals ---

// DeltaNegaForward transforms a in place: each word becomes the negabinary
// form of its wrapping difference from the previous word.
func DeltaNegaForward[W bits.Word](a []W) {
	prev := W(0)
	for i, w := range a {
		a[i] = bits.ToNegabinary(w - prev)
		prev = w
	}
}

// DeltaNegaInverse inverts DeltaNegaForward in place.
func DeltaNegaInverse[W bits.Word](a []W) {
	prev := W(0)
	for i, w := range a {
		prev += bits.FromNegabinary(w)
		a[i] = prev
	}
}

// --- Stage 2: bit shuffle (square bit-matrix transpose) ---

// Transpose transposes the square bit matrix held in a, whose length is the
// word width, with the generic shift-loop butterfly (the seed form of
// bits.Transpose32/64). It is an involution.
func Transpose[W bits.Word](a []W) {
	n := bits.Width[W]()
	a = a[:n]
	m := ^W(0) >> uint(n/2)
	for j := n / 2; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < n; k = (k + j + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// BitShuffle transposes each group of a in place, a group being as many
// words as a word has bits (involution).
func BitShuffle[W bits.Word](a []W) {
	g := bits.Width[W]()
	for i := 0; i+g <= len(a); i += g {
		Transpose(a[i : i+g])
	}
}

// BitShuffle32 is BitShuffle at single precision, the counterpart of
// core.BitShuffle32.
func BitShuffle32(a []uint32) { BitShuffle(a) }

// BitShuffle64 is BitShuffle at double precision.
func BitShuffle64(a []uint64) { BitShuffle(a) }

// ShufflePack32 bit-shuffles a copy of src (BitShuffle) and writes the
// shuffled words to dst as little-endian bytes, one byte at a time.
// len(src) must be a multiple of 32; src is left untouched.
func ShufflePack32(dst []byte, src []uint32) { shufflePack(dst, src) }

// UnpackShuffle32 inverts ShufflePack32: it assembles len(dst)
// little-endian words from src and bit-shuffles them in place.
func UnpackShuffle32(dst []uint32, src []byte) { unpackShuffle(dst, src) }

// ShufflePack64 is the double-precision counterpart of ShufflePack32.
func ShufflePack64(dst []byte, src []uint64) { shufflePack(dst, src) }

// UnpackShuffle64 inverts ShufflePack64.
func UnpackShuffle64(dst []uint64, src []byte) { unpackShuffle(dst, src) }

func shufflePack[W bits.Word](dst []byte, src []W) {
	size := bits.Width[W]() / 8
	words := append([]W(nil), src...)
	BitShuffle(words)
	for i, w := range words {
		for k := 0; k < size; k++ {
			dst[i*size+k] = byte(w >> (8 * k))
		}
	}
}

func unpackShuffle[W bits.Word](dst []W, src []byte) {
	size := bits.Width[W]() / 8
	for i := range dst {
		w := W(0)
		for k := 0; k < size; k++ {
			w |= W(src[i*size+k]) << (8 * k)
		}
		dst[i] = w
	}
	BitShuffle(dst)
}

// --- Stage 3: iterated zero-byte elimination ---

// BuildZeroBitmap returns a bitmap with bit i set iff data[i] != 0.
func BuildZeroBitmap(data []byte) []byte {
	bm := make([]byte, BitmapLen(len(data)))
	BuildZeroBitmapInto(data, bm)
	return bm
}

// BuildZeroBitmapInto writes the zero bitmap of data into bm, which must
// have length BitmapLen(len(data)). One byte at a time, by definition.
func BuildZeroBitmapInto(data []byte, bm []byte) {
	clear(bm)
	for i, b := range data {
		if b != 0 {
			bm[i>>3] |= 1 << uint(i&7)
		}
	}
}

// BuildRepeatBitmap returns a bitmap with bit i set iff data[i] differs
// from data[i-1] (bit 0 is always set: the first byte has no predecessor).
func BuildRepeatBitmap(data []byte) []byte {
	bm := make([]byte, BitmapLen(len(data)))
	BuildRepeatBitmapInto(data, bm)
	return bm
}

// BuildRepeatBitmapInto writes the repeat bitmap of data into bm, which
// must have length BitmapLen(len(data)).
func BuildRepeatBitmapInto(data []byte, bm []byte) {
	clear(bm)
	prev := byte(0)
	for i, b := range data {
		if i == 0 || b != prev {
			bm[i>>3] |= 1 << uint(i&7)
		}
		prev = b
	}
}

// AppendNonZero appends the nonzero bytes of data — per its level-1 bitmap
// bm1 — to out, whole groups at a time where the bitmap says all eight
// survive.
func AppendNonZero(out []byte, data []byte, bm1 []byte) []byte {
	for j, x := range bm1 {
		base := j * 8
		switch x {
		case 0:
		case 0xFF:
			end := base + 8
			if end > len(data) {
				end = len(data)
			}
			out = append(out, data[base:end]...)
		default:
			for bit := 0; bit < 8; bit++ {
				i := base + bit
				if i < len(data) && x&(1<<uint(bit)) != 0 {
					out = append(out, data[i])
				}
			}
		}
	}
	return out
}

// AppendNonRepeat appends the bytes of data that differ from their
// predecessor (plus the first byte) to out.
func AppendNonRepeat(out []byte, data []byte) []byte {
	prev := byte(0)
	for i, b := range data {
		if i == 0 || b != prev {
			out = append(out, b)
		}
		prev = b
	}
	return out
}

// ExpandRepeat reconstructs dst from its repeat bitmap bm and the stream of
// non-repeating bytes at the front of src, returning bytes consumed.
func ExpandRepeat(bm []byte, src []byte, dst []byte) (int, error) {
	pos := 0
	prev := byte(0)
	for i := range dst {
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

// ExpandZero reconstructs dst from its zero bitmap bm and the stream of
// nonzero bytes at the front of src, returning bytes consumed.
func ExpandZero(bm []byte, src []byte, dst []byte) (int, error) {
	pos := 0
	for i := range dst {
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

// ZeroElimEncode appends the encoded form of data to out and returns the
// extended slice. Layout, outermost level first:
//
//	bm[levels] || nonrep(bm[levels-1]) || ... || nonrep(bm[1]) || nonzero(data)
//
// where bm[1] is the zero-byte bitmap of data and bm[k+1] is the
// repeat-byte bitmap of bm[k].
func ZeroElimEncode(data []byte, out []byte) []byte {
	bms := make([][]byte, BitmapLevels+1)
	bms[1] = BuildZeroBitmap(data)
	for level := 2; level <= BitmapLevels; level++ {
		bms[level] = BuildRepeatBitmap(bms[level-1])
	}
	out = append(out, bms[BitmapLevels]...)
	for level := BitmapLevels - 1; level >= 1; level-- {
		out = AppendNonRepeat(out, bms[level])
	}
	return AppendNonZero(out, data, bms[1])
}

// ZeroElimDecode decodes n payload bytes from src into dst (len(dst) == n)
// and returns the number of bytes of src consumed.
func ZeroElimDecode(src []byte, dst []byte) (int, error) {
	n := len(dst)
	sizes := make([]int, BitmapLevels+1)
	sizes[0] = n
	for level := 1; level <= BitmapLevels; level++ {
		sizes[level] = BitmapLen(sizes[level-1])
	}
	pos := 0
	if len(src) < sizes[BitmapLevels] {
		return 0, ErrCorrupt
	}
	bm := make([]byte, sizes[BitmapLevels])
	copy(bm, src[:sizes[BitmapLevels]])
	pos += sizes[BitmapLevels]
	for level := BitmapLevels - 1; level >= 1; level-- {
		next := make([]byte, sizes[level])
		used, err := ExpandRepeat(bm, src[pos:], next)
		if err != nil {
			return 0, err
		}
		pos += used
		bm = next
	}
	used, err := ExpandZero(bm, src[pos:], dst)
	if err != nil {
		return 0, err
	}
	pos += used
	return pos, nil
}
