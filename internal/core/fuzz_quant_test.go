package core

// The chunk quantizers against the per-value ones: QuantizeChunk must emit
// exactly the words of EncodeValue, and DequantizeChunk exactly the values
// of DecodeValue, at both precisions, for every mode and ablation switch,
// on any input — including words no encoder emits.

import (
	"encoding/binary"
	"math"
	"testing"

	"pfpl/internal/bits"
)

// quantCase decodes the fuzzer's configuration byte: bits 0-1 pick the
// mode (NOA over a range of 1, or REL twice as often as the others), bit 2
// sets Raw, bit 3 UseLibm, bit 4 SkipVerify.
func quantCase(cfg byte, bound float64, prec64 bool) (Params, bool) {
	mode := [...]Mode{ABS, REL, NOA, REL}[cfg&3]
	p, err := NewParams(mode, bound, 1, prec64)
	if err != nil {
		return p, false
	}
	p.Raw = p.Raw || cfg&4 != 0
	p.UseLibm = cfg&8 != 0
	p.SkipVerify = cfg&16 != 0
	return p, true
}

func checkQuantizeChunk[T Float, W bits.Word](t *testing.T, p *Params, src []T, q *QuantScratch) {
	t.Helper()
	words := make([]W, len(src))
	QuantizeChunk(p, words, src, q)
	for i, v := range src {
		if want := EncodeValue[T, W](p, v); words[i] != want {
			t.Fatalf("%+v: QuantizeChunk word %d of %d (%v) = %#x, EncodeValue %#x", *p, i, len(src), v, words[i], want)
		}
	}
	// The words themselves, then the input bits read as words: NaN
	// payloads, out-of-range bins and reserved codes no encoder emits.
	inWords := make([]W, len(src))
	for i, v := range src {
		inWords[i] = wordOf[T, W](v)
	}
	for _, ws := range [][]W{words, inWords} {
		dst := make([]T, len(ws))
		DequantizeChunk(p, dst, ws, q)
		for i, w := range ws {
			if got, want := wordOf[T, W](dst[i]), wordOf[T, W](DecodeValue[T](p, w)); got != want {
				t.Fatalf("%+v: DequantizeChunk value %d of word %#x = %#x, DecodeValue %#x", *p, i, w, got, want)
			}
		}
	}
}

// collidingRel returns values whose REL bins share memo slots within one
// block (bins b, b+memoSlots, b+2*memoSlots, ... interleaved with repeats
// of earlier bins), so that the memo's claim, conflict and reuse paths all
// run. Each value sits just inside its bin.
func collidingRel(p *Params, n int, prec64 bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		bin := int64(40 + (i%7)*memoSlots + (i%3)*(i/64))
		if i%5 == 0 {
			bin = -bin
		}
		v := math.Exp2(float64(bin) * p.logBin)
		if !prec64 {
			v = float64(float32(v))
		}
		if i%2 == 1 {
			v = -v
		}
		out[i] = v
	}
	return out
}

func addQuantSeed(f *testing.F, cfg byte, bound float64, vals []float64) {
	data := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	f.Add(cfg, bound, data)
}

func FuzzQuantizeChunk(f *testing.F) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000003),
		math.Float64frombits(0xFFF0000000000005), math.Float64frombits(1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 1.5, 1e-40, 3e38, -7.25, 1e300, 1e-300,
	}
	relp, _ := NewParams(REL, 1e-3, 0, false)
	for cfg := byte(0); cfg < 32; cfg++ {
		addQuantSeed(f, cfg, 1e-3, specials)
	}
	addQuantSeed(f, 1, 1e-3, collidingRel(&relp, 3*quantBlock+3, false))
	addQuantSeed(f, 1, 1e-3, collidingRel(&relp, 2*quantBlock+1, true))
	addQuantSeed(f, 1, 0.5, specials[:7])
	addQuantSeed(f, 1, 1e-12, specials[:9])
	addQuantSeed(f, 0, 1e-30, specials)
	f.Add(byte(3), 1e-3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, cfg byte, bound float64, data []byte) {
		if len(data) > 3*ChunkBytes {
			data = data[:3*ChunkBytes]
		}
		var q QuantScratch
		if p, ok := quantCase(cfg, bound, false); ok {
			src := make([]float32, len(data)/4)
			for i := range src {
				src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
			checkQuantizeChunk[float32, uint32](t, &p, src, &q)
			// The same values once more through the warm scratch, and as
			// a tail that is not a multiple of the four lanes.
			checkQuantizeChunk[float32, uint32](t, &p, src[:len(src)*3/4], &q)
		}
		if p, ok := quantCase(cfg, bound, true); ok {
			src := make([]float64, len(data)/8)
			for i := range src {
				src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
			checkQuantizeChunk[float64, uint64](t, &p, src, &q)
			checkQuantizeChunk[float64, uint64](t, &p, src[:len(src)*3/4], &q)
		}
	})
}

// TestQuantizeChunkMemoCollisions drives whole chunks whose bins collide in
// the memo through both precisions and every ablation switch.
func TestQuantizeChunkMemoCollisions(t *testing.T) {
	var q QuantScratch
	for cfg := byte(1); cfg < 32; cfg += 2 { // odd: REL
		p32, _ := quantCase(cfg, 1e-3, false)
		vals := collidingRel(&p32, ChunkWords32+5, false)
		src32 := make([]float32, len(vals))
		for i, v := range vals {
			src32[i] = float32(v)
		}
		checkQuantizeChunk[float32, uint32](t, &p32, src32, &q)
		p64, _ := quantCase(cfg, 1e-3, true)
		checkQuantizeChunk[float64, uint64](t, &p64, collidingRel(&p64, ChunkWords64+3, true), &q)
	}
}
