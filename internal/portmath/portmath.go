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
//
//pfpl:deterministic
package portmath

import "math"

const (
	ln2     = 0.6931471805599453 // rounded ln(2)
	invLn2  = 1.4426950408889634 // rounded 1/ln(2)
	sqrt2   = 1.4142135623730951 // rounded sqrt(2)
	pow511  = 0x1p511            // 2^511, for range reduction in scalb
	pow512m = 0x1p-511           // 2^-511
)

// log2Coef holds the Horner coefficients of 1 + z/3 + z^2/5 + ... +
// z^10/21, highest power first: ln(m) = 2*s*P(s*s) with s = (m-1)/(m+1).
var log2Coef = [...]float64{
	1.0 / 21.0, 1.0 / 19.0, 1.0 / 17.0, 1.0 / 15.0, 1.0 / 13.0, 1.0 / 11.0,
	1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0,
}

// exp2Coef holds the Taylor coefficients of exp(t) through t^13/13!,
// highest power first; they keep the truncation error below 1e-16
// relative on the reduced range |t| <= 0.347.
var exp2Coef = [...]float64{
	1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0,
	1.0 / 362880.0, 1.0 / 40320.0, 1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0,
	1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0,
}

// Log2 returns an approximation of the base-2 logarithm of x for finite
// x > 0. The result is within a few ULPs of the correctly rounded value.
// Behaviour for x <= 0, NaN, or +Inf is the caller's responsibility; the
// PFPL quantizer filters those values before calling.
func Log2(x float64) float64 {
	s, z, e := log2Reduce(x)
	p := log2Coef[0]
	for _, c := range log2Coef[1:] {
		p = float64(p*z) + c
	}
	return log2Finish(s, p, e)
}

// Log2x4 replaces each of the four values in x by Log2 of it. The lanes
// run in lockstep, so their independent Horner chains overlap in the
// pipeline, and each lane performs exactly the operation sequence of Log2:
// the results are bit-identical to four scalar calls.
func Log2x4(x *[4]float64) {
	s0, z0, e0 := log2Reduce(x[0])
	s1, z1, e1 := log2Reduce(x[1])
	s2, z2, e2 := log2Reduce(x[2])
	s3, z3, e3 := log2Reduce(x[3])
	p0, p1, p2, p3 := log2Coef[0], log2Coef[0], log2Coef[0], log2Coef[0]
	for _, c := range log2Coef[1:] {
		p0 = float64(p0*z0) + c
		p1 = float64(p1*z1) + c
		p2 = float64(p2*z2) + c
		p3 = float64(p3*z3) + c
	}
	x[0] = log2Finish(s0, p0, e0)
	x[1] = log2Finish(s1, p1, e1)
	x[2] = log2Finish(s2, p2, e2)
	x[3] = log2Finish(s3, p3, e3)
}

// log2Reduce splits x into 2^e * m with m in [sqrt(2)/2, sqrt(2)] and
// returns s = (m-1)/(m+1) (|s| <= 0.1716) and z = s*s, the argument of the
// atanh series ln(m) = 2*atanh(s).
func log2Reduce(x float64) (s, z float64, e int) {
	bits := math.Float64bits(x)
	if bits&0x7FF0000000000000 == 0 {
		// Denormal: scale into the normal range first.
		bits = math.Float64bits(x * 0x1p54)
		e = -54
	}
	e += int(bits>>52&0x7FF) - 1023
	// Replace the exponent to obtain the mantissa m in [1, 2).
	m := math.Float64frombits(bits&0x000FFFFFFFFFFFFF | 0x3FF0000000000000)
	if m > sqrt2 {
		m = float64(m * 0.5)
		e++
	}
	s = (m - 1) / (m + 1)
	return s, float64(s * s), e
}

// log2Finish turns the series value p = P(s*s) back into log2(2^e * m).
func log2Finish(s, p float64, e int) float64 {
	lnm := 2 * s * p
	return float64(e) + float64(lnm*invLn2)
}

// Exp2 returns an approximation of 2**x for finite x, saturating to +Inf
// above the representable range and to 0 below it.
func Exp2(x float64) float64 {
	t, n := exp2Reduce(x)
	p := exp2Coef[0]
	for _, c := range exp2Coef[1:] {
		p = float64(p*t) + c
	}
	return exp2Finish(x, p, n)
}

// Exp2x4 replaces each of the four values in x by Exp2 of it, with the
// lanes in lockstep like Log2x4; the results are bit-identical to four
// scalar calls.
func Exp2x4(x *[4]float64) {
	t0, n0 := exp2Reduce(x[0])
	t1, n1 := exp2Reduce(x[1])
	t2, n2 := exp2Reduce(x[2])
	t3, n3 := exp2Reduce(x[3])
	p0, p1, p2, p3 := exp2Coef[0], exp2Coef[0], exp2Coef[0], exp2Coef[0]
	for _, c := range exp2Coef[1:] {
		p0 = float64(p0*t0) + c
		p1 = float64(p1*t1) + c
		p2 = float64(p2*t2) + c
		p3 = float64(p3*t3) + c
	}
	x[0] = exp2Finish(x[0], p0, n0)
	x[1] = exp2Finish(x[1], p1, n1)
	x[2] = exp2Finish(x[2], p2, n2)
	x[3] = exp2Finish(x[3], p3, n3)
}

// exp2Reduce splits x into n + f with n = RoundToInt(x), f in [-0.5, 0.5],
// and returns t = f*ln(2) (|t| <= 0.347) and n. Outside the saturation
// bounds, where exp2Finish ignores them, both are 0.
func exp2Reduce(x float64) (t float64, n int64) {
	if !(x < 1025 && x > -1076) {
		return 0, 0
	}
	n = RoundToInt(x)
	f := x - float64(n)
	return float64(f * ln2), n
}

// exp2Finish scales the series value p = exp(t) by 2^n, or returns the
// saturated result for an x outside the representable range (and NaN for
// NaN, which the quantizer never passes but which keeps Exp2 total).
func exp2Finish(x, p float64, n int64) float64 {
	if x != x {
		return x
	}
	if x >= 1025 {
		return math.Inf(1)
	}
	if x <= -1076 {
		return 0
	}
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
