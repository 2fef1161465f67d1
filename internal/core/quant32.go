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
	if w, ok := relExact32(bits); ok {
		return w
	}
	bin, ok := relBin(float64(p.log2(math.Abs(float64(v)))*p.invLogBin), f32RelBin)
	if !ok {
		return bits ^ f32RelXor
	}
	if p.SkipVerify {
		return relWord32(bin, bits)
	}
	return p.relVerified32(bits, bin, p.exp2(float64(float64(bin)*p.logBin)))
}

// relVerified32 returns the word of bin for the value with bit pattern
// bits if its reconstruction from e = exp2(bin*logBin) honors the bound,
// and the value's lossless word otherwise.
func (p *Params) relVerified32(bits uint32, bin int64, e float64) uint32 {
	if !p.relVerify(math.Abs(float64(math.Float32frombits(bits))), float64(float32(e))) {
		return bits ^ f32RelXor
	}
	return relWord32(bin, bits)
}

// relExact32 returns the word of a value the REL quantizer stores without a
// bin, or exact = false for a finite nonzero value. NaN and Inf keep their
// bits, except that negative NaNs are made positive to free their encoding
// space for bin numbers; +-0 cannot be quantized in log space and take the
// reserved payloads.
func relExact32(bits uint32) (w uint32, exact bool) {
	if bits&f32ExpMask == f32ExpMask {
		if bits&f32MantMask != 0 {
			bits &^= f32SignBit
		}
		return bits ^ f32RelXor, true
	}
	switch bits {
	case 0:
		return (f32RelXor | f32PosZero) ^ f32RelXor, true
	case f32SignBit:
		return (f32RelXor | f32NegZero) ^ f32RelXor, true
	}
	return 0, false
}

// relWord32 packs bin and the sign of the value with bit pattern bits.
func relWord32(bin int64, bits uint32) uint32 {
	//pfpl:ignore intwidth payload is 2+2*|bin| with |bin| <= f32RelBin, far below 2^23
	return (f32RelXor | uint32(relPayload(bin, bits&f32SignBit != 0))) ^ f32RelXor
}

func (p *Params) decodeRel32(w uint32) float32 {
	pl := relBinPayload32(w)
	if pl == 0 {
		return relExactValue32(w)
	}
	bin, neg := relUnpayload(pl)
	return relValue32(p.exp2(float64(float64(bin)*p.logBin)), neg)
}

// relBinPayload32 returns the payload of a REL word that carries a bin, or
// 0 for a word that stores its value exactly: a bin lives in the negative-
// NaN range (after the XOR) above the reserved payloads of +-0.
func relBinPayload32(w uint32) uint64 {
	raw := w ^ f32RelXor
	if raw&^f32MantMask != f32SignBit|f32ExpMask || raw&f32MantMask < f32RelBase {
		return 0
	}
	return uint64(raw & f32MantMask)
}

// relExactValue32 returns the value of a REL word without a bin payload.
func relExactValue32(w uint32) float32 {
	switch raw := w ^ f32RelXor; raw {
	case f32SignBit | f32ExpMask | f32PosZero:
		return 0
	case f32SignBit | f32ExpMask | f32NegZero:
		return math.Float32frombits(f32SignBit)
	default:
		return math.Float32frombits(raw)
	}
}

// relValue32 rounds the reconstructed magnitude e = exp2(bin*logBin) to
// single precision and gives it the value's sign.
func relValue32(e float64, neg bool) float32 {
	r := float32(e)
	if neg {
		return -r
	}
	return r
}
