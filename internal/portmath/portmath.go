// Package portmath implements the portable transcendental approximations
// that PFPL's REL quantizer relies on (paper §III.C).
//
// Library log()/pow() implementations often differ between compilers and
// devices, which would break PFPL's bit-for-bit CPU/GPU compatibility. The
// functions here therefore use only IEEE 754 addition, subtraction,
// multiplication, and division plus integer bit manipulation, and never a
// fused multiply-add. The Go spec lets the compiler fuse x*y + z into one
// FMA instruction — even across statements and through a declared float64
// variable — and it does so on arm64, ppc64le, riscv64 and loong64. Only
// an explicit float64(...) conversion forces the product to be rounded, so
// every product that feeds an addition or subtraction here, and in the
// quantizers of internal/core, is wrapped in one; TestNoFusedMultiplyAdd
// asserts that no fused instruction survives. Identical inputs therefore
// yield identical outputs on every conforming platform.
//
// The approximations carry small errors relative to a correctly rounded
// libm. PFPL tolerates this: the quantizer immediately verifies every
// reconstructed value against the error bound and stores the original bits
// losslessly when the approximation strays (paper §III.B).
package portmath

import "math"

const (
	ln2     = 0.6931471805599453 // rounded ln(2)
	invLn2  = 1.4426950408889634 // rounded 1/ln(2)
	sqrt2   = 1.4142135623730951 // rounded sqrt(2)
	pow511  = 0x1p511            // 2^511, for range reduction in scalb
	pow512m = 0x1p-511           // 2^-511
)

// Log2 returns an approximation of the base-2 logarithm of x for finite
// x > 0. The result is within a few ULPs of the correctly rounded value.
// Behaviour for x <= 0, NaN, or +Inf is the caller's responsibility; the
// PFPL quantizer filters those values before calling.
func Log2(x float64) float64 {
	bits := math.Float64bits(x)
	var e int
	if bits&0x7FF0000000000000 == 0 {
		// Denormal: scale into the normal range first.
		x *= 0x1p54
		e = -54
		bits = math.Float64bits(x)
	}
	e += int(bits>>52&0x7FF) - 1023
	// Replace the exponent to obtain the mantissa m in [1, 2).
	m := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	if m > sqrt2 {
		m = float64(m * 0.5)
		e++
	}
	// ln(m) = 2*atanh(s) with s = (m-1)/(m+1), |s| <= 0.1716.
	num := m - 1
	den := m + 1
	s := num / den
	z := float64(s * s)
	// Horner evaluation of 1 + z/3 + z^2/5 + ... + z^10/21.
	p := 1.0 / 21.0
	p = float64(p*z) + 1.0/19.0
	p = float64(p*z) + 1.0/17.0
	p = float64(p*z) + 1.0/15.0
	p = float64(p*z) + 1.0/13.0
	p = float64(p*z) + 1.0/11.0
	p = float64(p*z) + 1.0/9.0
	p = float64(p*z) + 1.0/7.0
	p = float64(p*z) + 1.0/5.0
	p = float64(p*z) + 1.0/3.0
	p = float64(p*z) + 1.0
	lnm := 2 * s * p
	return float64(e) + float64(lnm*invLn2)
}

// Exp2 returns an approximation of 2**x for finite x, saturating to +Inf
// above the representable range and to 0 below it.
func Exp2(x float64) float64 {
	if x != x { // NaN guard; quantizer never passes NaN but stay total
		return x
	}
	if x >= 1025 {
		return math.Inf(1)
	}
	if x <= -1076 {
		return 0
	}
	n := RoundToInt(x)
	f := x - float64(n)   // in [-0.5, 0.5]
	t := float64(f * ln2) // in [-0.347, 0.347]
	// Taylor series for exp(t): terms through t^13/13! keep the truncation
	// error below 1e-16 relative on the reduced range.
	p := 1.0 / 6227020800.0 // 1/13!
	p = float64(p*t) + 1.0/479001600.0
	p = float64(p*t) + 1.0/39916800.0
	p = float64(p*t) + 1.0/3628800.0
	p = float64(p*t) + 1.0/362880.0
	p = float64(p*t) + 1.0/40320.0
	p = float64(p*t) + 1.0/5040.0
	p = float64(p*t) + 1.0/720.0
	p = float64(p*t) + 1.0/120.0
	p = float64(p*t) + 1.0/24.0
	p = float64(p*t) + 1.0/6.0
	p = float64(p*t) + 0.5
	p = float64(p*t) + 1.0
	p = float64(p*t) + 1.0
	return Scalb(p, n)
}

// Scalb returns y * 2**n computed with exact power-of-two multiplications,
// a portable replacement for math.Ldexp. Overflow saturates to ±Inf and
// underflow rounds through the denormal range to ±0 per IEEE semantics of
// the constituent multiplications.
func Scalb(y float64, n int64) float64 {
	for n > 511 {
		y *= pow511
		n -= 511
	}
	for n < -511 {
		y *= pow512m
		n += 511
	}
	return y * math.Float64frombits(uint64(n+1023)<<52)
}

// RoundToInt rounds x to the nearest integer, halves away from zero, using
// only comparisons, additions, and an integer conversion. The caller must
// ensure |x| < 2^62; the PFPL quantizers bound the magnitude before calling.
func RoundToInt(x float64) int64 {
	if x >= 0 {
		return int64(x + 0.5)
	}
	return int64(x - 0.5)
}
