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
	if bits&f64ExpMask == f64ExpMask {
		if bits&f64MantMask != 0 {
			bits &^= f64SignBit // negative NaN -> positive NaN
		}
		return bits ^ f64RelXor
	}
	if bits&^f64SignBit == 0 {
		if bits == 0 {
			return (f64RelXor | f64PosZero) ^ f64RelXor
		}
		return (f64RelXor | f64NegZero) ^ f64RelXor
	}
	neg := bits&f64SignBit != 0
	mag := v
	if neg {
		mag = -mag
	}
	b := float64(p.log2(mag) * p.invLogBin)
	if !(b < f64RelBin+0.5 && b > -(f64RelBin+0.5)) {
		return bits ^ f64RelXor
	}
	bin := portmath.RoundToInt(b)
	if !p.SkipVerify {
		rmag := p.exp2(float64(float64(bin) * p.logBin))
		// Verify with the exact arithmetic any auditor would use (see the
		// single-precision encoder for rationale).
		diff := mag - rmag
		if diff < 0 {
			diff = -diff
		}
		if !(diff/mag <= p.Bound) || rmag == 0 || !isFinite64(rmag) {
			return bits ^ f64RelXor
		}
	}
	return (f64RelXor | relPayload(bin, neg)) ^ f64RelXor
}

func (p *Params) decodeRel64(w uint64) float64 {
	raw := w ^ f64RelXor
	if raw&f64ExpMask == f64ExpMask && raw&f64SignBit != 0 && raw&f64MantMask != 0 {
		payload := raw & f64MantMask
		switch payload {
		case f64PosZero:
			return 0
		case f64NegZero:
			return math.Float64frombits(f64SignBit)
		}
		bin, neg := relUnpayload(payload)
		rmag := p.exp2(float64(float64(bin) * p.logBin))
		if neg {
			return -rmag
		}
		return rmag
	}
	return math.Float64frombits(raw)
}
