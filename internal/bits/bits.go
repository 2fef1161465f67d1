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

// negabinary masks: the bit pattern 1010...10 selects the digit positions
// whose place value is negative in base -2.
const (
	negaMask32 = 0xAAAAAAAA
	negaMask64 = 0xAAAAAAAAAAAAAAAA
)

// ToNegabinary32 converts a two's-complement 32-bit value (carried in a
// uint32) to its base -2 representation. Values of small magnitude, positive
// or negative, map to words with many leading zero bits, which the later
// PFPL stages exploit.
func ToNegabinary32(x uint32) uint32 {
	return (x + negaMask32) ^ negaMask32
}

// FromNegabinary32 inverts ToNegabinary32.
func FromNegabinary32(x uint32) uint32 {
	return (x ^ negaMask32) - negaMask32
}

// ToNegabinary64 converts a two's-complement 64-bit value (carried in a
// uint64) to its base -2 representation.
func ToNegabinary64(x uint64) uint64 {
	return (x + negaMask64) ^ negaMask64
}

// FromNegabinary64 inverts ToNegabinary64.
func FromNegabinary64(x uint64) uint64 {
	return (x ^ negaMask64) - negaMask64
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

// ZigZag64 maps a signed 64-bit value to an unsigned one with small codes
// for small magnitudes.
func ZigZag64(x int64) uint64 {
	return uint64((x << 1) ^ (x >> 63))
}

// UnZigZag64 inverts ZigZag64.
func UnZigZag64(x uint64) int64 {
	return int64(x>>1) ^ -int64(x&1)
}

// Transpose32 transposes the 32x32 bit matrix held in a, where word i is row
// i and bit j (bit 0 = least significant) is column j. After the call, bit j
// of word i equals the former bit i of word j. The operation is an
// involution: applying it twice restores the input.
//
// This is PFPL's warp-granularity bit shuffle: on the GPU each warp of 32
// threads performs the same exchange with warp shuffle instructions
// (gpusim.TransposeWarpShuffle models it lane by lane). Here the five
// butterfly steps are unrolled with constant shift counts and masks so each
// block swap compiles to straight shift/mask arithmetic with no
// loop-carried mask updates; internal/core/ref.Transpose32 keeps the
// generic shift-loop form as the reference.
func Transpose32(a *[32]uint32) {
	// Step 1, j=16: swap the 16x16 off-diagonal blocks.
	for k := 0; k < 16; k++ {
		t := ((a[k] >> 16) ^ a[k+16]) & 0x0000FFFF
		a[k] ^= t << 16
		a[k+16] ^= t
	}
	// Step 2, j=8: two independent 16-row halves.
	for b := 0; b < 32; b += 16 {
		for k := b; k < b+8; k++ {
			t := ((a[k] >> 8) ^ a[k+8]) & 0x00FF00FF
			a[k] ^= t << 8
			a[k+8] ^= t
		}
	}
	// Step 3, j=4.
	for b := 0; b < 32; b += 8 {
		for k := b; k < b+4; k++ {
			t := ((a[k] >> 4) ^ a[k+4]) & 0x0F0F0F0F
			a[k] ^= t << 4
			a[k+4] ^= t
		}
	}
	// Step 4, j=2.
	for b := 0; b < 32; b += 4 {
		t := ((a[b] >> 2) ^ a[b+2]) & 0x33333333
		a[b] ^= t << 2
		a[b+2] ^= t
		t = ((a[b+1] >> 2) ^ a[b+3]) & 0x33333333
		a[b+1] ^= t << 2
		a[b+3] ^= t
	}
	// Step 5, j=1: adjacent row pairs.
	for k := 0; k < 32; k += 2 {
		t := ((a[k] >> 1) ^ a[k+1]) & 0x55555555
		a[k] ^= t << 1
		a[k+1] ^= t
	}
}

// Transpose64 transposes the 64x64 bit matrix held in a, the double-precision
// counterpart of Transpose32 (six unrolled butterfly steps). It is likewise
// an involution.
func Transpose64(a *[64]uint64) {
	// Step 1, j=32.
	for k := 0; k < 32; k++ {
		t := ((a[k] >> 32) ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	// Step 2, j=16.
	for b := 0; b < 64; b += 32 {
		for k := b; k < b+16; k++ {
			t := ((a[k] >> 16) ^ a[k+16]) & 0x0000FFFF0000FFFF
			a[k] ^= t << 16
			a[k+16] ^= t
		}
	}
	// Step 3, j=8.
	for b := 0; b < 64; b += 16 {
		for k := b; k < b+8; k++ {
			t := ((a[k] >> 8) ^ a[k+8]) & 0x00FF00FF00FF00FF
			a[k] ^= t << 8
			a[k+8] ^= t
		}
	}
	// Step 4, j=4.
	for b := 0; b < 64; b += 8 {
		for k := b; k < b+4; k++ {
			t := ((a[k] >> 4) ^ a[k+4]) & 0x0F0F0F0F0F0F0F0F
			a[k] ^= t << 4
			a[k+4] ^= t
		}
	}
	// Step 5, j=2.
	for b := 0; b < 64; b += 4 {
		t := ((a[b] >> 2) ^ a[b+2]) & 0x3333333333333333
		a[b] ^= t << 2
		a[b+2] ^= t
		t = ((a[b+1] >> 2) ^ a[b+3]) & 0x3333333333333333
		a[b+1] ^= t << 2
		a[b+3] ^= t
	}
	// Step 6, j=1.
	for k := 0; k < 64; k += 2 {
		t := ((a[k] >> 1) ^ a[k+1]) & 0x5555555555555555
		a[k] ^= t << 1
		a[k+1] ^= t
	}
}
