// Package bits provides the low-level bit manipulation primitives shared by
// the PFPL pipeline stages and the baseline compressors: negabinary (base -2)
// conversion, zigzag coding, square bit-matrix transposition (the "bit
// shuffle" of PFPL's second lossless stage), and bit-granular stream
// readers/writers.
//
// All operations here are pure integer manipulations and therefore produce
// identical results on every platform, which is a prerequisite for PFPL's
// bit-for-bit CPU/GPU compatibility guarantee.
package bits

import "encoding/binary"

// Word is a lane word of either precision: uint32 holds a float32's bits,
// uint64 a float64's. Every stage except the byte-granular final one works
// on words as wide as the value (paper §III.D), so those stages are written
// once over Word.
type Word interface{ uint32 | uint64 }

// Width returns the bit width of W, 32 or 64. It folds to a constant in
// each instantiation, so a branch on it costs nothing at run time.
func Width[W Word]() int {
	if ^W(0)>>31>>1 != 0 {
		return 64
	}
	return 32
}

// ToNegabinary converts a two's-complement value (carried in an unsigned
// word) to its base -2 representation. Values of small magnitude, positive
// or negative, map to words with many leading zero bits, which the later
// PFPL stages exploit. ^W(0)/3<<1 is the digit mask 1010...10, which selects
// the positions whose place value is negative in base -2.
func ToNegabinary[W Word](x W) W {
	m := ^W(0) / 3 << 1
	return (x + m) ^ m
}

// FromNegabinary inverts ToNegabinary.
func FromNegabinary[W Word](x W) W {
	m := ^W(0) / 3 << 1
	return (x ^ m) - m
}

// PutLE stores w little-endian in b[:Width[W]()/8].
func PutLE[W Word](b []byte, w W) {
	if Width[W]() == 64 {
		binary.LittleEndian.PutUint64(b, uint64(w))
		return
	}
	binary.LittleEndian.PutUint32(b, uint32(w))
}

// LE loads the little-endian word at the front of b.
func LE[W Word](b []byte) W {
	if Width[W]() == 64 {
		return W(binary.LittleEndian.Uint64(b))
	}
	return W(binary.LittleEndian.Uint32(b))
}

// ZigZag32 maps a signed value to an unsigned one such that values of small
// magnitude map to small codes: 0,-1,1,-2,2,... -> 0,1,2,3,4,...
func ZigZag32(x int32) uint32 {
	return uint32((x << 1) ^ (x >> 31))
}

// UnZigZag32 inverts ZigZag32.
func UnZigZag32(x uint32) int32 {
	return int32(x>>1) ^ -int32(x&1)
}

// Transpose32 transposes the 32x32 bit matrix held in a, where word i is row
// i and bit j (bit 0 = least significant) is column j. After the call, bit j
// of word i equals the former bit i of word j. The operation is an
// involution: applying it twice restores the input.
//
// This is PFPL's warp-granularity bit shuffle: on the GPU each warp of 32
// threads performs the same exchange with warp shuffle instructions
// (gpusim.TransposeWarpShuffle models it lane by lane). Here the rows are
// paired into 64-bit words and handed to TransposePairs32, which does the
// butterfly at full register width; internal/core/ref.Transpose keeps the
// generic shift-loop form as the reference.
func Transpose32(a *[32]uint32) {
	var x [16]uint64
	for k := range x {
		x[k] = uint64(a[2*k]) | uint64(a[2*k+1])<<32
	}
	TransposePairs32(&x)
	for k, w := range x {
		a[2*k] = uint32(w) //pfpl:ignore intwidth deliberate split: the low half is row 2k
		a[2*k+1] = uint32(w >> 32)
	}
}

// TransposePairs32 is Transpose32 on rows held two to a word: x[k] carries
// row 2k in its low half and row 2k+1 in its high half, which is also the
// little-endian byte layout of the 32 rows, so a byte stream of 32-bit
// words can be loaded and stored eight bytes at a time.
//
// The butterfly steps j=16/8/4/2 swap bit blocks between two words with
// the 32-bit masks replicated into both halves, so each 64-bit operation
// does the work of two 32-bit ones. The j=1 step pairs the two halves of
// one word. The steps are register-blocked: j=16 and j=8 only mix the four
// words x[k], x[k+4], x[k+8], x[k+12], and j=4, 2 and 1 only mix
// x[4m..4m+3], so the whole transpose is two passes over four-word groups
// held in registers instead of five passes through memory.
func TransposePairs32(x *[16]uint64) {
	const (
		m16 = 0x0000FFFF0000FFFF
		m8  = 0x00FF00FF00FF00FF
		m4  = 0x0F0F0F0F0F0F0F0F
		m2  = 0x3333333333333333
	)
	// Pass 1: j=16 pairs rows r and r+16 (words k and k+8), j=8 pairs rows
	// r and r+8 (words k and k+4).
	for k := 0; k < 4; k++ {
		x0, x1, x2, x3 := x[k], x[k+4], x[k+8], x[k+12]
		x0, x2 = swap(x0, x2, 16, m16)
		x1, x3 = swap(x1, x3, 16, m16)
		x0, x1 = swap(x0, x1, 8, m8)
		x2, x3 = swap(x2, x3, 8, m8)
		x[k], x[k+4], x[k+8], x[k+12] = x0, x1, x2, x3
	}
	// Pass 2: j=4 pairs words 4m+i and 4m+i+2, j=2 adjacent words, j=1 the
	// two halves of each word.
	for m := 0; m < 16; m += 4 {
		x0, x1, x2, x3 := x[m], x[m+1], x[m+2], x[m+3]
		x0, x2 = swap(x0, x2, 4, m4)
		x1, x3 = swap(x1, x3, 4, m4)
		x0, x1 = swap(x0, x1, 2, m2)
		x2, x3 = swap(x2, x3, 2, m2)
		x[m], x[m+1], x[m+2], x[m+3] = halves(x0), halves(x1), halves(x2), halves(x3)
	}
}

// halves is TransposePairs32's j=1 step: it swaps the odd bits of the low
// row with the even bits of the high row held in the same word.
func halves(x uint64) uint64 {
	t := ((x >> 1) ^ (x >> 32)) & 0x55555555
	return x ^ (t<<1 | t<<32)
}

// Transpose64 transposes the 64x64 bit matrix held in a, the double-precision
// counterpart of Transpose32. It is likewise an involution. The six
// butterfly steps are register-blocked like TransposePairs32's: j=32, 16
// and 8 only mix the eight rows k, k+8, ..., k+56, and j=4, 2 and 1 only
// mix rows 8m..8m+7, so the transpose is two passes over eight-row groups.
func Transpose64(a *[64]uint64) {
	const (
		m32 = 0x00000000FFFFFFFF
		m16 = 0x0000FFFF0000FFFF
		m8  = 0x00FF00FF00FF00FF
		m4  = 0x0F0F0F0F0F0F0F0F
		m2  = 0x3333333333333333
		m1  = 0x5555555555555555
	)
	// Pass 1: j=32, 16, 8 on rows k+8i, i = 0..7.
	for k := 0; k < 8; k++ {
		x0, x1, x2, x3 := a[k], a[k+8], a[k+16], a[k+24]
		x4, x5, x6, x7 := a[k+32], a[k+40], a[k+48], a[k+56]
		x0, x4 = swap(x0, x4, 32, m32)
		x1, x5 = swap(x1, x5, 32, m32)
		x2, x6 = swap(x2, x6, 32, m32)
		x3, x7 = swap(x3, x7, 32, m32)
		x0, x2 = swap(x0, x2, 16, m16)
		x1, x3 = swap(x1, x3, 16, m16)
		x4, x6 = swap(x4, x6, 16, m16)
		x5, x7 = swap(x5, x7, 16, m16)
		x0, x1 = swap(x0, x1, 8, m8)
		x2, x3 = swap(x2, x3, 8, m8)
		x4, x5 = swap(x4, x5, 8, m8)
		x6, x7 = swap(x6, x7, 8, m8)
		a[k], a[k+8], a[k+16], a[k+24] = x0, x1, x2, x3
		a[k+32], a[k+40], a[k+48], a[k+56] = x4, x5, x6, x7
	}
	// Pass 2: j=4, 2, 1 on rows 8m..8m+7.
	for m := 0; m < 64; m += 8 {
		x0, x1, x2, x3 := a[m], a[m+1], a[m+2], a[m+3]
		x4, x5, x6, x7 := a[m+4], a[m+5], a[m+6], a[m+7]
		x0, x4 = swap(x0, x4, 4, m4)
		x1, x5 = swap(x1, x5, 4, m4)
		x2, x6 = swap(x2, x6, 4, m4)
		x3, x7 = swap(x3, x7, 4, m4)
		x0, x2 = swap(x0, x2, 2, m2)
		x1, x3 = swap(x1, x3, 2, m2)
		x4, x6 = swap(x4, x6, 2, m2)
		x5, x7 = swap(x5, x7, 2, m2)
		x0, x1 = swap(x0, x1, 1, m1)
		x2, x3 = swap(x2, x3, 1, m1)
		x4, x5 = swap(x4, x5, 1, m1)
		x6, x7 = swap(x6, x7, 1, m1)
		a[m], a[m+1], a[m+2], a[m+3] = x0, x1, x2, x3
		a[m+4], a[m+5], a[m+6], a[m+7] = x4, x5, x6, x7
	}
}

// swap is one butterfly exchange: the j-bit blocks of lo selected by
// m<<j trade places with the blocks of hi selected by m.
func swap(lo, hi uint64, j uint, m uint64) (uint64, uint64) {
	t := ((lo >> j) ^ hi) & m
	return lo ^ t<<j, hi ^ t
}
