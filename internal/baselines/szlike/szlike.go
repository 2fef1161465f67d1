// Package szlike reimplements the SZ family of prediction-based
// error-bounded compressors that the paper compares against (§VI):
//
//   - SZ2: Lorenzo prediction (up to 3-D) + error-controlled quantization +
//     RLE + Huffman coding. ABS and NOA bounds are guaranteed by on-line
//     verification against the decoded prediction; values that cannot be
//     quantized go to a separate outlier list signalled by a reserved code —
//     the design PFPL §III.B explicitly contrasts with its inline scheme.
//   - SZ2 REL: implemented, as in the real code, by a logarithmic
//     pre-transform followed by ABS compression of the logarithms. The
//     transform's floating-point rounding genuinely violates the relative
//     bound on some values — the behaviour Table III reports ("SZ2 has
//     large error-bound violations on CESM").
//   - SZ3: hierarchical interpolation prediction, which compresses smooth
//     data markedly better than Lorenzo at similar speed. No REL support
//     (Table III).
//   - SZ3-OMP: SZ3 applied to independent blocks in parallel; compresses
//     less than serial SZ3 because prediction and entropy contexts reset at
//     block boundaries, exactly the paper's observation.
package szlike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pfpl/internal/core"
)

// Variant selects the compressor generation.
type Variant uint8

// The three SZ variants evaluated in the paper.
const (
	SZ2 Variant = iota
	SZ3
	SZ3OMP
)

// String returns the display name.
func (v Variant) String() string {
	switch v {
	case SZ2:
		return "SZ2"
	case SZ3:
		return "SZ3-Serial"
	case SZ3OMP:
		return "SZ3-OMP"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// ErrUnsupported reports a mode/variant combination the original code does
// not provide (e.g. REL on SZ3, per Table III).
var ErrUnsupported = errors.New("szlike: unsupported mode for this variant")

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("szlike: corrupt stream")

// Quantization geometry: codes live in [-radius+1, radius-1] around the
// center; 0 flags an outlier, 1 flags a run of center codes.
const (
	center     = 32768
	radius     = 32700
	symOutlier = 0
	symRun     = 1
)

const ompBlock = 1 << 16 // values per SZ3-OMP block

type number interface {
	float32 | float64
}

// header layout (little-endian):
// magic "SZLK" | variant | mode | prec(0/1) | ndims | bound f64 | range f64 |
// count u64 | dims u32*ndims | 4 section lengths u32 | sections...
// sections: huffman codes, run lengths (varint), outliers (raw elems), signs
const szMagic = "SZLK"

func putHeader[T number](out []byte, variant Variant, mode core.Mode, bound, rng float64, count int, dims []int) []byte {
	out = append(out, szMagic...)
	var one T
	prec := byte(0)
	if _, is64 := any(one).(float64); is64 {
		prec = 1
	}
	out = append(out, byte(variant), byte(mode), prec, byte(len(dims)))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(bound))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(rng))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(count))
	out = append(out, b8[:]...)
	for _, d := range dims {
		if d < 0 || int64(d) > math.MaxUint32 {
			panic("szlike: dimension outside the uint32 header range")
		}
		binary.LittleEndian.PutUint32(b8[:4], uint32(d))
		out = append(out, b8[:4]...)
	}
	return out
}

type header struct {
	variant Variant
	mode    core.Mode
	prec64  bool
	bound   float64
	rng     float64
	count   int
	dims    []int
	body    []byte
}

func parseHeader(buf []byte) (header, error) {
	var h header
	if len(buf) < 8 {
		return h, ErrCorrupt
	}
	if string(buf[:4]) != szMagic {
		return h, ErrCorrupt
	}
	h.variant = Variant(buf[4])
	h.mode = core.Mode(buf[5])
	h.prec64 = buf[6] == 1
	nd := int(buf[7])
	need := 8 + 24 + 4*nd
	if len(buf) < need || nd > 8 {
		return h, ErrCorrupt
	}
	h.bound = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	h.rng = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	count64 := binary.LittleEndian.Uint64(buf[24:])
	if count64 > maxDecodeElems {
		return h, ErrCorrupt
	}
	// The dims must multiply to the count, checked in uint64: a dim above
	// MaxInt32 would turn negative as a 32-bit int and index out of range.
	prod := uint64(1)
	for i := 0; i < nd; i++ {
		d := uint64(binary.LittleEndian.Uint32(buf[32+4*i:]))
		if prod *= d; d > maxDecodeElems || prod > maxDecodeElems {
			return h, ErrCorrupt
		}
		h.dims = append(h.dims, int(d))
	}
	if prod != count64 {
		return h, ErrCorrupt
	}
	h.count = int(count64)
	h.body = buf[need:]
	return h, nil
}

// maxDecodeElems caps the element count a stream may declare, bounding the
// allocation a corrupted header can trigger.
const maxDecodeElems = 1 << 28

// quantState carries the on-line quantization loop state.
type quantState[T number] struct {
	twoEps  float64
	eps     float64
	invTwoE float64
	// neutralOutlierCtx makes outliers contribute the prediction rather
	// than their value to the context. Required for REL, whose outlier
	// section is rewritten with the original (pre-log) values after
	// encoding, so the decoder cannot reproduce a value-based context.
	neutralOutlierCtx bool
	syms              []uint16
	runLens           []byte // varint-encoded lengths for symRun
	outliers          []T
	pendRun           int
	decoded           []T // reconstructed values, used as the prediction context
}

func newQuantState[T number](n int, eps float64) *quantState[T] {
	return &quantState[T]{
		twoEps:  eps + eps,
		eps:     eps,
		invTwoE: 1 / (eps + eps),
		syms:    make([]uint16, 0, n),
		decoded: make([]T, n),
	}
}

func (q *quantState[T]) flushRun() {
	switch {
	case q.pendRun == 0:
	case q.pendRun <= 3:
		for i := 0; i < q.pendRun; i++ {
			q.syms = append(q.syms, center)
		}
	default:
		q.syms = append(q.syms, symRun)
		q.runLens = binary.AppendUvarint(q.runLens, uint64(q.pendRun))
	}
	q.pendRun = 0
}

// encode quantizes value v at index i given prediction pred, guaranteeing
// |v - decoded| <= eps via verification (the SZ ABS guarantee).
func (q *quantState[T]) encode(i int, v T, pred float64) {
	vf := float64(v)
	diff := vf - pred
	codef := diff * q.invTwoE
	if codef < radius-1 && codef > -(radius-1) {
		code := int64(codef + math.Copysign(0.5, codef))
		r := T(pred + float64(code)*q.twoEps)
		err := vf - float64(r)
		if err <= q.eps && err >= -q.eps {
			if code == 0 {
				q.pendRun++
			} else {
				q.flushRun()
				q.syms = append(q.syms, uint16(code+center))
			}
			q.decoded[i] = r
			return
		}
	}
	q.flushRun()
	q.syms = append(q.syms, symOutlier)
	q.outliers = append(q.outliers, v)
	if q.neutralOutlierCtx || !isFiniteT(v) {
		// REL outliers are rewritten after encoding, and NaN placeholders
		// must never poison later predictions: use the prediction itself.
		q.decoded[i] = T(pred)
	} else {
		q.decoded[i] = v
	}
}

func isFiniteT[T number](v T) bool {
	f := float64(v)
	return f-f == 0
}

// dequantState mirrors quantState for decoding. ctx is the prediction
// context (identical to the encoder's decoded array); out receives the
// actual reconstructed values, which differ from ctx only at outliers.
type dequantState[T number] struct {
	twoEps            float64
	neutralOutlierCtx bool
	syms              []uint16
	runLens           []byte
	outliers          []T
	si                int
	run               int
	ctx               []T
	out               []T
}

func (d *dequantState[T]) next(i int, pred float64) error {
	if d.run > 0 {
		d.run--
		v := T(pred)
		d.ctx[i] = v
		d.out[i] = v
		return nil
	}
	if d.si >= len(d.syms) {
		return ErrCorrupt
	}
	s := d.syms[d.si]
	d.si++
	switch s {
	case symOutlier:
		if len(d.outliers) == 0 {
			return ErrCorrupt
		}
		v := d.outliers[0]
		d.outliers = d.outliers[1:]
		d.out[i] = v
		if d.neutralOutlierCtx || !isFiniteT(v) {
			d.ctx[i] = T(pred) // mirror the encoder's neutral context
		} else {
			d.ctx[i] = v
		}
		return nil
	case symRun:
		n, used := binary.Uvarint(d.runLens)
		if used <= 0 || n == 0 {
			return ErrCorrupt
		}
		d.runLens = d.runLens[used:]
		d.run = int(n) - 1
		v := T(pred)
		d.ctx[i] = v
		d.out[i] = v
		return nil
	default:
		code := int64(s) - center
		v := T(pred + float64(code)*d.twoEps)
		d.ctx[i] = v
		d.out[i] = v
		return nil
	}
}
