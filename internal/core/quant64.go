package core

import (
	"math"

	"pfpl/internal/portmath"
)

// EncodeValue64 is the double-precision counterpart of EncodeValue32. The
// denormal and NaN ranges are much wider (2^52 values), allowing a wider
// range of bin numbers (paper §III.B).
func (p *Params) EncodeValue64(v float64) uint64 {
	if p.Raw {
		return math.Float64bits(v)
	}
	if p.Mode == REL {
		return p.encodeRel64(v)
	}
	return p.encodeAbs64(v)
}

// DecodeValue64 inverts EncodeValue64.
func (p *Params) DecodeValue64(w uint64) float64 {
	if p.Raw {
		return math.Float64frombits(w)
	}
	if p.Mode == REL {
		return p.decodeRel64(w)
	}
	return p.decodeAbs64(w)
}

func (p *Params) encodeAbs64(v float64) uint64 {
	bits := math.Float64bits(v)
	if bits&f64ExpMask == f64ExpMask {
		return bits
	}
	b := float64(v * p.scale)
	if !(b < f64MaxBin+0.5 && b > -(f64MaxBin+0.5)) {
		return bits
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		r := float64(float64(bin) * p.twoEps)
		diff := v - r
		if !(diff <= p.absBound && diff >= -p.absBound) {
			return bits
		}
	}
	if bin < 0 {
		return f64SignBit | uint64(-bin)
	}
	return uint64(bin)
}

func (p *Params) decodeAbs64(w uint64) float64 {
	if w&f64ExpMask != 0 {
		return math.Float64frombits(w)
	}
	bin := int64(w & f64MantMask)
	if w&f64SignBit != 0 {
		bin = -bin
	}
	return float64(float64(bin) * p.twoEps)
}

func (p *Params) encodeRel64(v float64) uint64 {
	bits := math.Float64bits(v)
	if w, ok := relExact64(bits); ok {
		return w
	}
	bin, ok := relBin(float64(p.log2(math.Abs(v))*p.invLogBin), f64RelBin)
	if !ok {
		return bits ^ f64RelXor
	}
	if p.SkipVerify {
		return relWord64(bin, bits)
	}
	return p.relVerified64(bits, bin, p.exp2(float64(float64(bin)*p.logBin)))
}

// relVerified64 is the double-precision counterpart of relVerified32.
func (p *Params) relVerified64(bits uint64, bin int64, e float64) uint64 {
	if !p.relVerify(math.Abs(math.Float64frombits(bits)), e) {
		return bits ^ f64RelXor
	}
	return relWord64(bin, bits)
}

// relExact64 is the double-precision counterpart of relExact32.
func relExact64(bits uint64) (w uint64, exact bool) {
	if bits&f64ExpMask == f64ExpMask {
		if bits&f64MantMask != 0 {
			bits &^= f64SignBit // negative NaN -> positive NaN
		}
		return bits ^ f64RelXor, true
	}
	switch bits {
	case 0:
		return (f64RelXor | f64PosZero) ^ f64RelXor, true
	case f64SignBit:
		return (f64RelXor | f64NegZero) ^ f64RelXor, true
	}
	return 0, false
}

// relWord64 packs bin and the sign of the value with bit pattern bits.
func relWord64(bin int64, bits uint64) uint64 {
	return (f64RelXor | relPayload(bin, bits&f64SignBit != 0)) ^ f64RelXor
}

func (p *Params) decodeRel64(w uint64) float64 {
	pl := relBinPayload64(w)
	if pl == 0 {
		return relExactValue64(w)
	}
	bin, neg := relUnpayload(pl)
	return relValue64(p.exp2(float64(float64(bin)*p.logBin)), neg)
}

// relBinPayload64 is the double-precision counterpart of relBinPayload32.
func relBinPayload64(w uint64) uint64 {
	raw := w ^ f64RelXor
	if raw&^f64MantMask != f64SignBit|f64ExpMask || raw&f64MantMask < f64RelBase {
		return 0
	}
	return raw & f64MantMask
}

// relExactValue64 is the double-precision counterpart of relExactValue32.
func relExactValue64(w uint64) float64 {
	switch raw := w ^ f64RelXor; raw {
	case f64SignBit | f64ExpMask | f64PosZero:
		return 0
	case f64SignBit | f64ExpMask | f64NegZero:
		return math.Float64frombits(f64SignBit)
	default:
		return math.Float64frombits(raw)
	}
}

// relValue64 gives the reconstructed magnitude the value's sign.
func relValue64(e float64, neg bool) float64 {
	if neg {
		return -e
	}
	return e
}
