package core

import (
	"math"

	"pfpl/internal/bits"
	"pfpl/internal/portmath"
)

// The per-value quantizers, written once over the value type T and the
// word W of its width. Single precision differs from double only in where
// a value is rounded to T: each explicit T(...) conversion below is that
// rounding step of the float32 code and a no-op at T = float64, so the one
// body keeps each precision's exact sequence of floating-point operations,
// which the error-bound guarantee depends on.

// EncodeValue quantizes one value into a word of its width that is either
// a bin number or, when quantization cannot honor the error bound, the
// unmodified (REL: sign-normalized, prefix-inverted) IEEE bit pattern. The
// word stream is self-describing: DecodeValue distinguishes bins from
// lossless values by their position in the floating-point encoding space
// (paper §III.B). The double-precision denormal and NaN ranges are much
// wider (2^52 values), allowing a wider range of bin numbers.
func EncodeValue[T Float, W bits.Word](p *Params, v T) W {
	if p.Raw {
		return wordOf[T, W](v)
	}
	if p.Mode == REL {
		return encodeRel[T, W](p, v)
	}
	return encodeAbs[T, W](p, v)
}

// DecodeValue inverts EncodeValue. The exact sequence of floating-point
// operations matches the verification step of the encoder, which is what
// makes the error-bound guarantee airtight.
func DecodeValue[T Float, W bits.Word](p *Params, w W) T {
	if p.Raw {
		return valueOf[T](w)
	}
	if p.Mode == REL {
		return decodeRel[T](p, w)
	}
	return decodeAbs[T](p, layoutOf[W](), w)
}

// EncodeValue32 is EncodeValue for float32.
func (p *Params) EncodeValue32(v float32) uint32 { return EncodeValue[float32, uint32](p, v) }

// DecodeValue32 is DecodeValue for float32.
func (p *Params) DecodeValue32(w uint32) float32 { return DecodeValue[float32](p, w) }

// EncodeValue64 is EncodeValue for float64.
func (p *Params) EncodeValue64(v float64) uint64 { return EncodeValue[float64, uint64](p, v) }

// DecodeValue64 is DecodeValue for float64.
func (p *Params) DecodeValue64(w uint64) float64 { return DecodeValue[float64](p, w) }

// encodeAbs implements the ABS/NOA quantizer. Bins are stored in the
// denormal range (exponent bits zero) in magnitude-sign format; the error
// bound is at least the smallest normal, so denormal inputs always quantize
// to bin 0 and every losslessly stored value has a nonzero exponent field,
// keeping the two cases disjoint.
func encodeAbs[T Float, W bits.Word](p *Params, v T) W {
	l := layoutOf[W]()
	u := wordOf[T, W](v)
	if u&l.exp == l.exp {
		// Infinity or NaN: store losslessly (paper §III.B).
		return u
	}
	v64 := float64(v)
	b := float64(v64 * p.scale)
	if !(b < l.maxBin()+0.5 && b > -(l.maxBin()+0.5)) {
		// Bin number too large for the denormal range (or b overflowed).
		return u
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		r := T(float64(bin) * p.twoEps)
		diff := v64 - float64(r)
		if !(diff <= p.absBound && diff >= -p.absBound) {
			// Finite-precision rounding pushed the reconstruction out of
			// bounds: guarantee the bound by storing the original bits.
			return u
		}
	}
	if bin < 0 {
		return l.sign | W(-bin)
	}
	return W(bin)
}

func decodeAbs[T Float, W bits.Word](p *Params, l layout[W], w W) T {
	if w&l.exp != 0 {
		return valueOf[T](w)
	}
	bin := int64(w & l.mant)
	if w&l.sign != 0 {
		bin = -bin
	}
	return T(float64(bin) * p.twoEps)
}

// encodeRel implements the REL quantizer: bins are computed in log2 space
// with the portable approximations and stored in the negative-NaN range.
// Every emitted word is XORed with the negative-NaN prefix so that bin
// numbers lead with zero bits (paper §III.B).
func encodeRel[T Float, W bits.Word](p *Params, v T) W {
	l := layoutOf[W]()
	u := wordOf[T, W](v)
	if w, ok := l.relExact(u); ok {
		return w
	}
	bin, ok := relBin(float64(p.log2(math.Abs(float64(v)))*p.invLogBin), l.relBin())
	if !ok {
		return u ^ l.relXor()
	}
	if p.SkipVerify {
		return l.relWord(bin, u)
	}
	return relVerified[T](p, u, bin, p.exp2(float64(float64(bin)*p.logBin)))
}

// relVerified returns the word of bin for the value with bit pattern u
// if its reconstruction from e = exp2(bin*logBin), rounded to T, honors
// the bound, and the value's lossless word otherwise.
func relVerified[T Float, W bits.Word](p *Params, u W, bin int64, e float64) W {
	l := layoutOf[W]()
	if !p.relVerify(math.Abs(float64(valueOf[T](u))), float64(T(e))) {
		return u ^ l.relXor()
	}
	return l.relWord(bin, u)
}

// relExact returns the word of a value the REL quantizer stores without a
// bin, or exact = false for a finite nonzero value. NaN and Inf keep their
// bits, except that negative NaNs are made positive to free their encoding
// space for bin numbers; +-0 cannot be quantized in log space and take the
// reserved payloads. A payload lies below the prefix, so XORing the
// prefixed payload with the prefix leaves the payload itself.
func (l layout[W]) relExact(u W) (w W, exact bool) {
	if u&l.exp == l.exp {
		if u&l.mant != 0 {
			u &^= l.sign
		}
		return u ^ l.relXor(), true
	}
	switch u {
	case 0:
		return relPosZero, true
	case l.sign:
		return relNegZero, true
	}
	return 0, false
}

// relWord packs bin and the sign of the value with bit pattern u: the
// prefixed payload XORed with the prefix, which is the payload itself, as
// |bin| <= relBin keeps the payload within the mantissa.
func (l layout[W]) relWord(bin int64, u W) W {
	return W(relPayload(bin, u&l.sign != 0))
}

func decodeRel[T Float, W bits.Word](p *Params, w W) T {
	l := layoutOf[W]()
	pl := l.relBinPayload(w)
	if pl == 0 {
		return relExactValue[T](l, w)
	}
	bin, neg := relUnpayload(pl)
	return relValue[T](p.exp2(float64(float64(bin)*p.logBin)), neg)
}

// relBinPayload returns the payload of a REL word that carries a bin, or 0
// for a word that stores its value exactly: a bin lives in the negative-NaN
// range (after the XOR) above the reserved payloads of +-0.
func (l layout[W]) relBinPayload(w W) uint64 {
	raw := w ^ l.relXor()
	if raw&^l.mant != l.sign|l.exp || raw&l.mant < relBase {
		return 0
	}
	return uint64(raw & l.mant)
}

// relExactValue returns the value of a REL word without a bin payload.
func relExactValue[T Float, W bits.Word](l layout[W], w W) T {
	raw := w ^ l.relXor()
	switch w { // a reserved payload is its own word (relExact)
	case relPosZero:
		raw = 0
	case relNegZero:
		raw = l.sign
	}
	return valueOf[T](raw)
}

// relValue rounds the reconstructed magnitude e = exp2(bin*logBin) to T and
// gives it the value's sign.
func relValue[T Float](e float64, neg bool) T {
	r := T(e)
	if neg {
		return -r
	}
	return r
}
