package core

import (
	"encoding/binary"
	"math"
	"testing"

	"pfpl/internal/core/ref"
)

func benchWords(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(1000 + 30*math.Sin(float64(i)*0.01))
	}
	return out
}

func benchWords64(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(100000 + 3000*math.Sin(float64(i)*0.01))
	}
	return out
}

// benchShuffled32 runs the upstream stages so the zero-elim benchmarks see
// the byte distribution of a real smooth chunk.
func benchShuffled32(b *testing.B) []byte {
	b.Helper()
	words := benchWords(ChunkWords32)
	DeltaNegaForward32(words)
	BitShuffle32(words)
	data := make([]byte, ChunkBytes)
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	return data
}

func BenchmarkQuantizeABS32(b *testing.B) {
	p, _ := NewParams(ABS, 1e-3, 0, false)
	src := make([]float32, ChunkWords32)
	for i := range src {
		src[i] = float32(math.Sin(float64(i) * 0.001))
	}
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		for _, v := range src {
			_ = p.EncodeValue32(v)
		}
	}
}

func BenchmarkQuantizeREL32(b *testing.B) {
	p, _ := NewParams(REL, 1e-3, 0, false)
	src := make([]float32, ChunkWords32)
	for i := range src {
		src[i] = float32(math.Exp(math.Sin(float64(i) * 0.001)))
	}
	b.SetBytes(int64(len(src) * 4))
	for i := 0; i < b.N; i++ {
		for _, v := range src {
			_ = p.EncodeValue32(v)
		}
	}
}

func BenchmarkStageDeltaNega32(b *testing.B) {
	words := benchWords(ChunkWords32)
	buf := make([]uint32, len(words))
	b.SetBytes(int64(len(words) * 4))
	for i := 0; i < b.N; i++ {
		copy(buf, words)
		DeltaNegaForward32(buf)
	}
}

func BenchmarkStageBitShuffle32(b *testing.B) {
	words := benchWords(ChunkWords32)
	b.SetBytes(int64(len(words) * 4))
	for i := 0; i < b.N; i++ {
		BitShuffle32(words)
	}
}

func BenchmarkStageDeltaNega32Ref(b *testing.B) {
	words := benchWords(ChunkWords32)
	buf := make([]uint32, len(words))
	b.SetBytes(int64(len(words) * 4))
	for i := 0; i < b.N; i++ {
		copy(buf, words)
		ref.DeltaNegaForward(buf)
	}
}

func BenchmarkStageDeltaNegaInverse32(b *testing.B) {
	words := benchWords(ChunkWords32)
	DeltaNegaForward32(words)
	buf := make([]uint32, len(words))
	b.SetBytes(int64(len(words) * 4))
	for i := 0; i < b.N; i++ {
		copy(buf, words)
		DeltaNegaInverse32(buf)
	}
}

func BenchmarkStageDeltaNega64(b *testing.B) {
	words := benchWords64(ChunkWords64)
	buf := make([]uint64, len(words))
	b.SetBytes(int64(len(words) * 8))
	for i := 0; i < b.N; i++ {
		copy(buf, words)
		DeltaNegaForward64(buf)
	}
}

func BenchmarkStageDeltaNegaInverse64(b *testing.B) {
	words := benchWords64(ChunkWords64)
	DeltaNegaForward64(words)
	buf := make([]uint64, len(words))
	b.SetBytes(int64(len(words) * 8))
	for i := 0; i < b.N; i++ {
		copy(buf, words)
		DeltaNegaInverse64(buf)
	}
}

func BenchmarkStageBitShuffle32Ref(b *testing.B) {
	words := benchWords(ChunkWords32)
	b.SetBytes(int64(len(words) * 4))
	for i := 0; i < b.N; i++ {
		ref.BitShuffle32(words)
	}
}

func BenchmarkStageBitShuffle64(b *testing.B) {
	words := benchWords64(ChunkWords64)
	b.SetBytes(int64(len(words) * 8))
	for i := 0; i < b.N; i++ {
		BitShuffle64(words)
	}
}

func BenchmarkStageZeroElim32(b *testing.B) {
	data := benchShuffled32(b)
	var s ZeroElimScratch
	out := make([]byte, 0, MaxChunkPayload)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		out = ZeroElimEncodeScratch(data, out[:0], &s)
	}
}

func BenchmarkStageZeroElim32Ref(b *testing.B) {
	data := benchShuffled32(b)
	out := make([]byte, 0, MaxChunkPayload)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		out = ref.ZeroElimEncode(data, out[:0])
	}
}

func BenchmarkStageZeroElimDecode32(b *testing.B) {
	data := benchShuffled32(b)
	var s ZeroElimScratch
	enc := ZeroElimEncodeScratch(data, nil, &s)
	dst := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := ZeroElimDecodeScratch(enc, dst, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageZeroElimDecode32Ref(b *testing.B) {
	data := benchShuffled32(b)
	enc := ref.ZeroElimEncode(data, nil)
	dst := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := ref.ZeroElimDecode(enc, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkEncode32(b *testing.B) {
	p, _ := NewParams(ABS, 1e-3, 0, false)
	src := make([]float32, ChunkWords32)
	for i := range src {
		src[i] = float32(math.Sin(float64(i) * 0.001))
	}
	var s Scratch32
	b.SetBytes(ChunkBytes)
	for i := 0; i < b.N; i++ {
		_, _ = EncodeChunk32(&p, src, &s)
	}
}

func BenchmarkChunkDecode32(b *testing.B) {
	p, _ := NewParams(ABS, 1e-3, 0, false)
	src := make([]float32, ChunkWords32)
	for i := range src {
		src[i] = float32(math.Sin(float64(i) * 0.001))
	}
	var s Scratch32
	payload, raw := EncodeChunk32(&p, src, &s)
	pl := append([]byte(nil), payload...)
	dst := make([]float32, ChunkWords32)
	var d Scratch32
	b.SetBytes(ChunkBytes)
	for i := 0; i < b.N; i++ {
		if err := DecodeChunk32(&p, pl, raw, dst, &d); err != nil {
			b.Fatal(err)
		}
	}
}
