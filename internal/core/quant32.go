package core

import (
	"math"

	"pfpl/internal/portmath"
)

// EncodeValue32 quantizes one float32 into a 32-bit word that is either a
// bin number or, when quantization cannot honor the error bound, the
// unmodified (REL: sign-normalized, prefix-inverted) IEEE bit pattern. The
// word stream is self-describing: DecodeValue32 distinguishes bins from
// lossless values by their position in the floating-point encoding space
// (paper §III.B).
func (p *Params) EncodeValue32(v float32) uint32 {
	if p.Raw {
		return math.Float32bits(v)
	}
	if p.Mode == REL {
		return p.encodeRel32(v)
	}
	return p.encodeAbs32(v)
}

// DecodeValue32 inverts EncodeValue32. The exact sequence of floating-point
// operations matches the verification step of the encoder, which is what
// makes the error-bound guarantee airtight.
func (p *Params) DecodeValue32(w uint32) float32 {
	if p.Raw {
		return math.Float32frombits(w)
	}
	if p.Mode == REL {
		return p.decodeRel32(w)
	}
	return p.decodeAbs32(w)
}

// encodeAbs32 implements the ABS/NOA quantizer for single precision. Bins
// are stored in the denormal range (exponent bits zero) in magnitude-sign
// format; the error bound is at least the smallest normal, so denormal
// inputs always quantize to bin 0 and every losslessly stored value has a
// nonzero exponent field, keeping the two cases disjoint.
func (p *Params) encodeAbs32(v float32) uint32 {
	bits := math.Float32bits(v)
	if bits&f32ExpMask == f32ExpMask {
		// Infinity or NaN: store losslessly (paper §III.B).
		return bits
	}
	v64 := float64(v)
	b := float64(v64 * p.scale)
	if !(b < f32MaxBin+0.5 && b > -(f32MaxBin+0.5)) {
		// Bin number too large for the denormal range (or b overflowed).
		return bits
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		r := float32(float64(bin) * p.twoEps)
		diff := v64 - float64(r)
		if !(diff <= p.absBound && diff >= -p.absBound) {
			// Finite-precision rounding pushed the reconstruction out of
			// bounds: guarantee the bound by storing the original bits.
			return bits
		}
	}
	if bin < 0 {
		return f32SignBit | uint32(-bin)
	}
	return uint32(bin)
}

func (p *Params) decodeAbs32(w uint32) float32 {
	if w&f32ExpMask != 0 {
		return math.Float32frombits(w)
	}
	bin := int64(w & f32MantMask)
	if w&f32SignBit != 0 {
		bin = -bin
	}
	return float32(float64(bin) * p.twoEps)
}

// encodeRel32 implements the REL quantizer: bins are computed in log2 space
// with the portable approximations and stored in the negative-NaN range.
// Every emitted word is XORed with the negative-NaN prefix so that bin
// numbers lead with zero bits (paper §III.B).
func (p *Params) encodeRel32(v float32) uint32 {
	bits := math.Float32bits(v)
	if bits&f32ExpMask == f32ExpMask {
		if bits&f32MantMask != 0 {
			// NaN: negative NaNs are made positive to free their encoding
			// space for bin numbers.
			bits &^= f32SignBit
		}
		return bits ^ f32RelXor
	}
	if bits&^f32SignBit == 0 {
		// +-0 cannot be quantized in log space; reserved payloads.
		if bits == 0 {
			return (f32RelXor | f32PosZero) ^ f32RelXor
		}
		return (f32RelXor | f32NegZero) ^ f32RelXor
	}
	neg := bits&f32SignBit != 0
	mag := float64(v)
	if neg {
		mag = -mag
	}
	b := float64(p.log2(mag) * p.invLogBin)
	if !(b < f32RelBin+0.5 && b > -(f32RelBin+0.5)) {
		return bits ^ f32RelXor
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		rmag := float32(p.exp2(float64(float64(bin) * p.logBin)))
		r64 := float64(rmag)
		// Verify with the exact arithmetic any auditor would use: the
		// relative error |v-r|/|v| must not exceed eps, and r must keep the
		// sign of v (r == 0 is rejected to preserve the sign requirement).
		diff := mag - r64
		if diff < 0 {
			diff = -diff
		}
		if !(diff/mag <= p.Bound) || r64 == 0 || !isFinite64(r64) {
			return bits ^ f32RelXor
		}
	}
	//pfpl:ignore intwidth payload is 2+2*|bin| with |bin| <= f32RelBin, far below 2^23
	return (f32RelXor | uint32(relPayload(bin, neg))) ^ f32RelXor
}

func (p *Params) decodeRel32(w uint32) float32 {
	raw := w ^ f32RelXor
	if raw&f32ExpMask == f32ExpMask && raw&f32SignBit != 0 && raw&f32MantMask != 0 {
		payload := uint64(raw & f32MantMask)
		switch payload {
		case f32PosZero:
			return 0
		case f32NegZero:
			return math.Float32frombits(f32SignBit)
		}
		bin, neg := relUnpayload(payload)
		rmag := float32(p.exp2(float64(float64(bin) * p.logBin)))
		if neg {
			return -rmag
		}
		return rmag
	}
	return math.Float32frombits(raw)
}
