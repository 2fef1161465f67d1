// Package core implements the PFPL compression algorithm: the ABS, REL, and
// NOA lossy quantizers with guaranteed error bounds (paper §III.A–B) and the
// three-stage lossless pipeline (difference coding + negabinary, bit
// shuffle, iterated zero-byte elimination; §III.D), organized around 16 kB
// chunks that form the unit of parallelism on both CPUs and GPUs (§III.E).
//
// Everything in this package is deterministic: the compressed byte stream
// depends only on the input values, the mode, and the error bound — never on
// the executor (serial, parallel CPU, or simulated GPU) that produced it.
package core

import (
	"errors"
	"fmt"
	"math"

	"pfpl/internal/bits"
	"pfpl/internal/portmath"
)

// Mode selects the point-wise error-bound type (paper §II).
type Mode uint8

const (
	// ABS bounds the point-wise absolute error |x - x'| <= eps.
	ABS Mode = iota
	// REL bounds the point-wise relative error: x' has the sign of x and
	// |x|/(1+eps) <= |x'| <= |x|*(1+eps).
	REL
	// NOA bounds the absolute error normalized by the value range:
	// |x - x'| <= eps * (max - min).
	NOA
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case ABS:
		return "ABS"
	case REL:
		return "REL"
	case NOA:
		return "NOA"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Chunk geometry. PFPL breaks the input into 16 kB chunks that are
// compressed independently (paper §III.E).
const (
	ChunkBytes   = 16384
	ChunkWords32 = ChunkBytes / 4 // float32 values per full chunk
	ChunkWords64 = ChunkBytes / 8 // float64 values per full chunk
)

// Smallest positive normal magnitudes; ABS/NOA error bounds below these
// cannot use denormal-range bin encoding (paper §III.B).
const (
	MinNormal32 = 0x1p-126
	MinNormal64 = 0x1p-1022
)

// Errors reported by quantizer construction and stream decoding.
var (
	ErrBadBound   = errors.New("pfpl: error bound must be a positive finite value")
	ErrBoundSmall = errors.New("pfpl: ABS error bound below the smallest positive normal value")
	ErrCorrupt    = errors.New("pfpl: corrupt or truncated compressed stream")
)

// isFinite64 reports whether f is neither NaN nor infinite.
func isFinite64(f float64) bool {
	return f-f == 0
}

// log2 and exp2 select between the portable approximations (the default,
// §III.C) and libm (UseLibm ablation).
func (p *Params) log2(x float64) float64 {
	if p.UseLibm {
		return math.Log2(x)
	}
	return portmath.Log2(x)
}

func (p *Params) exp2(x float64) float64 {
	if p.UseLibm {
		return math.Exp2(x)
	}
	return portmath.Exp2(x)
}

// wordOf returns the IEEE bit pattern of v as a word of v's width. The
// width test ^W(0)>>32 != 0 (as two shifts, which vet accepts at 32 bits)
// folds to a constant in each instantiation.
func wordOf[T Float, W bits.Word](v T) W {
	if ^W(0)>>31>>1 != 0 {
		return W(math.Float64bits(float64(v)))
	}
	return W(math.Float32bits(float32(v)))
}

// valueOf returns the value whose IEEE bit pattern is w.
func valueOf[T Float, W bits.Word](w W) T {
	if ^W(0)>>31>>1 != 0 {
		return T(math.Float64frombits(uint64(w)))
	}
	return T(math.Float32frombits(uint32(w)))
}

// Params carries the quantizer configuration shared by the encoder and the
// decoder. The decoder reconstructs it from the container header, so every
// field must be derivable from (mode, bound, noaRange) deterministically.
type Params struct {
	Mode     Mode
	Bound    float64 // user-supplied error bound eps
	NOARange float64 // max-min of the input (NOA only, else 0)

	// Raw reports that quantization is disabled and every word in the
	// stream is an unmodified IEEE bit pattern. Used when the NOA-derived
	// absolute bound is too small for denormal-range bin encoding (e.g. a
	// constant input with range 0), making the compressor lossless.
	Raw bool

	// SkipVerify disables the immediate decode-and-check step that makes
	// the error bound airtight (paper §III.B). It exists ONLY for the
	// guarantee-cost ablation study; production paths never set it.
	SkipVerify bool

	// UseLibm routes the REL quantizer through the Go standard library's
	// log/exp instead of the portable approximations, measuring what the
	// CPU/GPU-compatibility guarantee costs (paper §III.C). Ablation only:
	// streams written with it are NOT portable across devices.
	UseLibm bool

	// Derived ABS/NOA state.
	absBound float64 // effective absolute bound (eps, or eps*range for NOA)
	twoEps   float64
	scale    float64 // 0.5 / absBound

	// Derived REL state.
	onePlusEps float64
	logBin     float64 // 2 * log2(1+eps): bin width in log2 space
	invLogBin  float64 // 1 / logBin
}

// NewParams validates the configuration and derives the quantization
// constants. prec64 selects double precision (only used for validating the
// minimum representable bound).
func NewParams(mode Mode, bound float64, noaRange float64, prec64 bool) (Params, error) {
	p := Params{Mode: mode, Bound: bound, NOARange: noaRange}
	if !(bound > 0) || !isFinite64(bound) {
		return p, ErrBadBound
	}
	minNormal := MinNormal32
	if prec64 {
		minNormal = MinNormal64
	}
	switch mode {
	case ABS:
		if bound < minNormal {
			return p, ErrBoundSmall
		}
		p.deriveAbs(bound)
	case NOA:
		if !(noaRange >= 0) || !isFinite64(noaRange) {
			// Range is NaN (e.g. empty input) or infinite: fall back to the
			// lossless raw representation, which satisfies any bound.
			p.Raw = true
			return p, nil
		}
		abs := float64(bound * noaRange)
		if abs < minNormal || !isFinite64(abs) {
			p.Raw = true
			return p, nil
		}
		p.deriveAbs(abs)
	case REL:
		p.onePlusEps = 1 + bound
		if !isFinite64(p.onePlusEps) {
			return p, ErrBadBound
		}
		p.logBin = float64(2 * portmath.Log2(p.onePlusEps))
		if p.logBin <= 0 || !isFinite64(p.logBin) {
			// eps so small that 1+eps rounds to 1: only lossless storage can
			// honor the bound.
			p.Raw = true
			return p, nil
		}
		p.invLogBin = 1 / p.logBin
	default:
		return p, fmt.Errorf("pfpl: unknown mode %d", mode)
	}
	return p, nil
}

func (p *Params) deriveAbs(abs float64) {
	p.absBound = abs
	p.twoEps = abs + abs
	p.scale = 0.5 / abs
	if !isFinite64(p.twoEps) || !isFinite64(p.scale) {
		p.Raw = true
	}
}

// AbsBound returns the effective absolute bound used for ABS/NOA
// quantization (eps, or eps*range for NOA).
func (p *Params) AbsBound() float64 { return p.absBound }

// layout is the bin-encoding layout of word W, which holds the IEEE bits
// of a value of the same width (paper §III.B): the sign bit, the exponent
// field and the mantissa field, 23 or 52 bits wide. ABS/NOA bins live in
// the denormal range in magnitude-sign format; REL bins live in the
// negative-NaN range, with every emitted word XORed by the NaN prefix.
// Functions take it from layoutOf and hand it to their helpers as a value,
// so wherever the helpers inline the masks fold to constants.
type layout[W bits.Word] struct{ sign, exp, mant W }

// layoutOf returns the layout of W.
func layoutOf[W bits.Word]() layout[W] {
	mant := ^W(0) >> 9 // below the sign and an 8-bit exponent
	if ^W(0)>>31>>1 != 0 {
		mant = ^W(0) >> 12 // below the sign and an 11-bit exponent
	}
	sign := ^(^W(0) >> 1)
	return layout[W]{sign: sign, exp: ^sign &^ mant, mant: mant}
}

// relXor is the negative-NaN prefix: the sign and exponent bits.
func (l layout[W]) relXor() W { return ^l.mant }

// maxBin is the ABS/NOA |bin| limit: a bin fills the mantissa.
func (l layout[W]) maxBin() float64 { return float64(l.mant) }

// relBin is the REL |bin| limit that keeps relPayload within the mantissa.
func (l layout[W]) relBin() float64 { return float64(l.mant >> 3) }

// REL reserved payloads, the same at both widths: +0 and -0 take payloads
// 1 and 2, and payloads from relBase up encode quantized bins.
const (
	relPosZero = 1
	relNegZero = 2
	relBase    = 3
)

// relBin rounds the log-space position b to its bin, or reports that the
// bin's magnitude exceeds lim and does not fit the NaN payload.
func relBin(b, lim float64) (bin int64, ok bool) {
	if !(b < lim+0.5 && b > -(lim+0.5)) {
		return 0, false
	}
	return portmath.RoundToInt(b), true
}

// relVerify checks a reconstruction r of the magnitude mag with the exact
// arithmetic any auditor would use: the relative error |mag-r|/mag must not
// exceed eps, and r must be finite and nonzero so that the value keeps its
// sign.
func (p *Params) relVerify(mag, r float64) bool {
	diff := mag - r
	if diff < 0 {
		diff = -diff
	}
	return diff/mag <= p.Bound && r != 0 && isFinite64(r)
}

// relPayload packs (value sign, zigzagged bin) into a NaN mantissa payload.
func relPayload(bin int64, negative bool) uint64 {
	q := uint64(bin<<1) ^ uint64(bin>>63) // zigzag
	t := q << 1
	if negative {
		t |= 1
	}
	return relBase + t
}

// relUnpayload inverts relPayload.
func relUnpayload(p uint64) (bin int64, negative bool) {
	t := p - relBase
	negative = t&1 != 0
	q := t >> 1
	bin = int64(q>>1) ^ -int64(q&1)
	return bin, negative
}
