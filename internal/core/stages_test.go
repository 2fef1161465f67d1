package core

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestDeltaNegaPaperExample(t *testing.T) {
	// Fig. 3: bins 3, 4, 4, 3 produce residuals 3, 1, 0, -1.
	in := []uint32{3, 4, 4, 3}
	DeltaNegaForward32(in)
	// Negabinary of 3,1,0,-1 = 111, 1, 0, 11.
	want := []uint32{0b111, 0b1, 0b0, 0b11}
	for i := range in {
		if in[i] != want[i] {
			t.Errorf("residual[%d] = %#b, want %#b", i, in[i], want[i])
		}
	}
	DeltaNegaInverse32(in)
	for i, w := range []uint32{3, 4, 4, 3} {
		if in[i] != w {
			t.Errorf("inverse[%d] = %d, want %d", i, in[i], w)
		}
	}
}

func TestDeltaNegaRoundtrip32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 4096} {
		a := make([]uint32, n)
		orig := make([]uint32, n)
		for i := range a {
			a[i] = rng.Uint32()
			orig[i] = a[i]
		}
		DeltaNegaForward32(a)
		DeltaNegaInverse32(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("n=%d: a[%d] = %d, want %d", n, i, a[i], orig[i])
			}
		}
	}
}

func TestDeltaNegaRoundtrip64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 63, 64, 65, 2048} {
		a := make([]uint64, n)
		orig := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
			orig[i] = a[i]
		}
		DeltaNegaForward64(a)
		DeltaNegaInverse64(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("n=%d: a[%d] = %d, want %d", n, i, a[i], orig[i])
			}
		}
	}
}

func TestBitShuffleInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]uint32, 4096)
	orig := make([]uint32, 4096)
	for i := range a {
		a[i] = rng.Uint32()
		orig[i] = a[i]
	}
	BitShuffle32(a)
	changed := false
	for i := range a {
		if a[i] != orig[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("shuffle left random data unchanged")
	}
	BitShuffle32(a)
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("double shuffle not identity at %d", i)
		}
	}

	b := make([]uint64, 2048)
	origB := make([]uint64, 2048)
	for i := range b {
		b[i] = rng.Uint64()
		origB[i] = b[i]
	}
	BitShuffle64(b)
	BitShuffle64(b)
	for i := range b {
		if b[i] != origB[i] {
			t.Fatalf("double shuffle64 not identity at %d", i)
		}
	}
}

func TestBitShuffleGroupsLowBitData(t *testing.T) {
	// If every word uses only its low 4 bits, the shuffled output has only
	// 4 nonzero words per 32-word group — the zero runs the final stage
	// needs.
	a := make([]uint32, 64)
	rng := rand.New(rand.NewSource(4))
	for i := range a {
		a[i] = rng.Uint32() & 0xF
	}
	BitShuffle32(a)
	for g := 0; g < 2; g++ {
		for k := 4; k < 32; k++ {
			if a[g*32+k] != 0 {
				t.Errorf("group %d word %d = %#x, want 0", g, k, a[g*32+k])
			}
		}
	}
}

func TestZeroElimRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 511, 512, 4096, 16384}
	densities := []float64{0, 0.01, 0.1, 0.5, 1.0}
	for _, n := range sizes {
		for _, d := range densities {
			data := make([]byte, n)
			for i := range data {
				if rng.Float64() < d {
					data[i] = byte(1 + rng.Intn(255))
				}
			}
			enc := ZeroElimEncode(data, nil)
			dst := make([]byte, n)
			used, err := ZeroElimDecode(enc, dst)
			if err != nil {
				t.Fatalf("n=%d d=%g: decode error %v", n, d, err)
			}
			if used != len(enc) {
				t.Fatalf("n=%d d=%g: consumed %d of %d bytes", n, d, used, len(enc))
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("n=%d d=%g: roundtrip mismatch", n, d)
			}
		}
	}
}

func TestZeroElimCompressesZeros(t *testing.T) {
	// An all-zero 16 kB input must shrink to the (compressed) bitmaps only.
	data := make([]byte, ChunkBytes)
	enc := ZeroElimEncode(data, nil)
	if len(enc) > 16 {
		t.Errorf("all-zero chunk encoded to %d bytes, want <= 16", len(enc))
	}
}

func TestZeroElimWorstCase(t *testing.T) {
	// All-nonzero random data: expansion must stay within MaxChunkPayload.
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, ChunkBytes)
	for i := range data {
		data[i] = byte(1 + rng.Intn(255))
	}
	enc := ZeroElimEncode(data, nil)
	if len(enc) > MaxChunkPayload {
		t.Errorf("worst-case encoding %d exceeds MaxChunkPayload %d", len(enc), MaxChunkPayload)
	}
}

func TestZeroElimTruncatedInput(t *testing.T) {
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	enc := ZeroElimEncode(data, nil)
	dst := make([]byte, 1024)
	for cut := 0; cut < len(enc); cut += 97 {
		if _, err := ZeroElimDecode(enc[:cut], dst); err == nil {
			t.Fatalf("truncation to %d bytes not detected", cut)
		}
	}
}

func TestBitmapLen(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 1}, {8, 1}, {9, 2}, {16384, 2048}} {
		if got := BitmapLen(c.n); got != c.want {
			t.Errorf("BitmapLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPipelineSmoothDataCompresses(t *testing.T) {
	// End-to-end stage sanity: smooth bin sequences must compress well.
	p, err := NewParams(ABS, 1e-2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float32, ChunkWords32)
	for i := range src {
		src[i] = float32(i) * 1e-3
	}
	var s Scratch32
	payload, raw := EncodeChunk32(&p, src, &s)
	if raw {
		t.Fatal("smooth chunk flagged incompressible")
	}
	if len(payload) > ChunkBytes/4 {
		t.Errorf("smooth chunk compressed to %d bytes, want < %d", len(payload), ChunkBytes/4)
	}
}
