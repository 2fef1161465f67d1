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

// Bit-cast aliases, kept local so hot loops avoid repeated package selector
// noise.
func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }
func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

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

// Float32 bin-encoding constants (paper §III.B). ABS/NOA bins live in the
// 2^23-wide denormal range in magnitude-sign format; REL bins live in the
// negative-NaN range with all emitted words XORed by the NaN prefix.
const (
	f32ExpMask  = 0x7F800000
	f32SignBit  = 0x80000000
	f32MantMask = 0x007FFFFF
	f32MaxBin   = 1<<23 - 1 // ABS/NOA: |bin| must fit in 23 bits
	f32RelXor   = 0xFF800000
	f32RelBin   = 1<<20 - 1 // REL: |bin| limit so the payload fits 23 bits
	f32PosZero  = 1         // REL reserved payload for +0
	f32NegZero  = 2         // REL reserved payload for -0
	f32RelBase  = 3         // REL payloads >= base encode quantized bins
)

// Float64 counterparts: a 2^52-wide denormal range and NaN payload.
const (
	f64ExpMask  = 0x7FF0000000000000
	f64SignBit  = 0x8000000000000000
	f64MantMask = 0x000FFFFFFFFFFFFF
	f64MaxBin   = 1<<52 - 1
	f64RelXor   = 0xFFF0000000000000
	f64RelBin   = 1<<49 - 1
	f64PosZero  = 1
	f64NegZero  = 2
	f64RelBase  = 3
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
	return f64RelBase + t
}

// relUnpayload inverts relPayload.
func relUnpayload(p uint64) (bin int64, negative bool) {
	t := p - f64RelBase
	negative = t&1 != 0
	q := t >> 1
	bin = int64(q>>1) ^ -int64(q&1)
	return bin, negative
}
