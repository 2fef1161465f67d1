package core

import (
	"math"
	"testing"
)

// The tracing probes in the chunk codecs must be free when disabled: with a
// nil recorder the serial compress hot loop may not allocate at all beyond
// the output buffer the caller sees. These guards pin that property.

func noTraceInput32() []float32 {
	src := make([]float32, ChunkWords32)
	for i := range src {
		src[i] = float32(math.Sin(float64(i) / 50))
	}
	return src
}

func TestEncodeChunkNoTraceZeroAllocs(t *testing.T)   { checkEncodeZeroAllocs32(t, ABS) }
func TestDecodeChunkNoTraceZeroAllocs(t *testing.T)   { checkDecodeZeroAllocs32(t, ABS) }
func TestEncodeChunk64NoTraceZeroAllocs(t *testing.T) { checkEncodeZeroAllocs64(t, ABS) }
func TestDecodeChunk64NoTraceZeroAllocs(t *testing.T) { checkDecodeZeroAllocs64(t, ABS) }

// The REL chunk kernels keep their log2 block and exp2 memo in the scratch.
func TestEncodeChunkRELNoTraceZeroAllocs(t *testing.T)   { checkEncodeZeroAllocs32(t, REL) }
func TestDecodeChunkRELNoTraceZeroAllocs(t *testing.T)   { checkDecodeZeroAllocs32(t, REL) }
func TestEncodeChunk64RELNoTraceZeroAllocs(t *testing.T) { checkEncodeZeroAllocs64(t, REL) }
func TestDecodeChunk64RELNoTraceZeroAllocs(t *testing.T) { checkDecodeZeroAllocs64(t, REL) }

func checkEncodeZeroAllocs32(t *testing.T, mode Mode) {
	src := noTraceInput32()
	p, err := NewParams(mode, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch32
	allocs := testing.AllocsPerRun(100, func() {
		if _, _ = EncodeChunk32(&p, src, &s); false {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v EncodeChunk32 with nil recorder allocated %.1f times per op, want 0", mode, allocs)
	}
}

func checkDecodeZeroAllocs32(t *testing.T, mode Mode) {
	src := noTraceInput32()
	p, err := NewParams(mode, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch32
	payload, raw := EncodeChunk32(&p, src, &s)
	pl := make([]byte, len(payload))
	copy(pl, payload)
	dst := make([]float32, len(src))
	var sd Scratch32
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeChunk32(&p, pl, raw, dst, &sd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v DecodeChunk32 with nil recorder allocated %.1f times per op, want 0", mode, allocs)
	}
}

func noTraceInput64() []float64 {
	src := make([]float64, ChunkWords64)
	for i := range src {
		src[i] = math.Sin(float64(i) / 50)
	}
	return src
}

func checkEncodeZeroAllocs64(t *testing.T, mode Mode) {
	src := noTraceInput64()
	p, err := NewParams(mode, 1e-3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch64
	allocs := testing.AllocsPerRun(100, func() {
		if _, _ = EncodeChunk64(&p, src, &s); false {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v EncodeChunk64 with nil recorder allocated %.1f times per op, want 0", mode, allocs)
	}
}

func checkDecodeZeroAllocs64(t *testing.T, mode Mode) {
	src := noTraceInput64()
	p, err := NewParams(mode, 1e-3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch64
	payload, raw := EncodeChunk64(&p, src, &s)
	pl := make([]byte, len(payload))
	copy(pl, payload)
	dst := make([]float64, len(src))
	var sd Scratch64
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeChunk64(&p, pl, raw, dst, &sd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v DecodeChunk64 with nil recorder allocated %.1f times per op, want 0", mode, allocs)
	}
}

// The word-parallel zero-elimination scratch codecs are on the traced-off
// hot path of every executor; neither direction may allocate.
func TestZeroElimScratchNoTraceZeroAllocs(t *testing.T) {
	data := make([]byte, ChunkBytes)
	for i := 0; i < len(data); i += 7 {
		data[i] = byte(i)
	}
	var s ZeroElimScratch
	out := make([]byte, 0, MaxChunkPayload)
	enc := ZeroElimEncodeScratch(data, out[:0], &s)
	encCopy := make([]byte, len(enc))
	copy(encCopy, enc)
	dst := make([]byte, len(data))

	allocs := testing.AllocsPerRun(100, func() {
		out = ZeroElimEncodeScratch(data, out[:0], &s)
	})
	if allocs != 0 {
		t.Fatalf("ZeroElimEncodeScratch allocated %.1f times per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := ZeroElimDecodeScratch(encCopy, dst, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ZeroElimDecodeScratch allocated %.1f times per op, want 0", allocs)
	}
}

// The word-parallel in-place word kernels must not allocate either — they
// run inside the zero-alloc chunk codecs.
func TestWordKernelsZeroAllocs(t *testing.T) {
	w32 := make([]uint32, ChunkWords32)
	w64 := make([]uint64, ChunkWords64)
	allocs := testing.AllocsPerRun(100, func() {
		DeltaNegaForward32(w32)
		DeltaNegaInverse32(w32)
		BitShuffle32(w32)
		DeltaNegaForward64(w64)
		DeltaNegaInverse64(w64)
		BitShuffle64(w64)
	})
	if allocs != 0 {
		t.Fatalf("word kernels allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkCompressNoTrace(b *testing.B) {
	src := noTraceInput32()
	p, err := NewParams(ABS, 1e-3, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	var s Scratch32
	b.ReportAllocs()
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		EncodeChunk32(&p, src, &s)
	}
	if b.N > 1 {
		if avg := float64(testing.AllocsPerRun(10, func() { EncodeChunk32(&p, src, &s) })); avg != 0 {
			b.Fatalf("nil-recorder encode path allocates (%.1f allocs/op)", avg)
		}
	}
}
