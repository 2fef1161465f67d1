package core

import (
	"math"
	"math/rand"
	"testing"
)

// smooth32 generates a smooth synthetic signal with n values.
func smooth32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	phase := rng.Float64()
	for i := range out {
		x := float64(i) * 0.01
		out[i] = float32(math.Sin(x+phase) + 0.3*math.Cos(3*x))
	}
	return out
}

func smooth64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	phase := rng.Float64()
	for i := range out {
		x := float64(i) * 0.01
		out[i] = math.Sin(x+phase) + 0.3*math.Cos(3*x)
	}
	return out
}

func TestSerialRoundtrip32AllModes(t *testing.T) {
	sizes := []int{0, 1, 5, ChunkWords32 - 1, ChunkWords32, ChunkWords32 + 1, 3*ChunkWords32 + 17}
	for _, mode := range []Mode{ABS, REL, NOA} {
		for _, n := range sizes {
			src := smooth32(n, int64(n))
			comp, err := CompressSerial32(src, mode, 1e-3)
			if err != nil {
				t.Fatalf("%v n=%d: compress: %v", mode, n, err)
			}
			dec, err := DecompressSerial32(comp, nil)
			if err != nil {
				t.Fatalf("%v n=%d: decompress: %v", mode, n, err)
			}
			if len(dec) != n {
				t.Fatalf("%v n=%d: got %d values", mode, n, len(dec))
			}
			h, _ := ParseHeader(comp)
			p, _ := ParamsForHeader(&h)
			for i := range src {
				checkBound32(t, &p, src[i], dec[i])
			}
		}
	}
}

func TestSerialRoundtrip64AllModes(t *testing.T) {
	sizes := []int{0, 1, ChunkWords64, 2*ChunkWords64 + 100}
	for _, mode := range []Mode{ABS, REL, NOA} {
		for _, n := range sizes {
			src := smooth64(n, int64(n))
			comp, err := CompressSerial64(src, mode, 1e-3)
			if err != nil {
				t.Fatalf("%v n=%d: compress: %v", mode, n, err)
			}
			dec, err := DecompressSerial64(comp, nil)
			if err != nil {
				t.Fatalf("%v n=%d: decompress: %v", mode, n, err)
			}
			h, _ := ParseHeader(comp)
			p, _ := ParamsForHeader(&h)
			for i := range src {
				checkBound64(t, &p, src[i], dec[i])
			}
		}
	}
}

func TestSerialRoundtripAdversarial32(t *testing.T) {
	// Random bit patterns including NaN/Inf/denormals, plus a region of
	// pure noise to trigger the raw-chunk fallback.
	rng := rand.New(rand.NewSource(11))
	n := 2*ChunkWords32 + 333
	src := make([]float32, n)
	for i := range src {
		src[i] = randFloat32(rng)
	}
	for _, mode := range []Mode{ABS, REL, NOA} {
		comp, err := CompressSerial32(src, mode, 1e-3)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		dec, err := DecompressSerial32(comp, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		h, _ := ParseHeader(comp)
		p, _ := ParamsForHeader(&h)
		for i := range src {
			if p.Raw {
				if math.Float32bits(dec[i]) != math.Float32bits(src[i]) {
					t.Fatalf("%v raw: bits differ at %d", mode, i)
				}
				continue
			}
			if mode == REL {
				// Negative NaNs come back positive; checkBound32 handles
				// NaN-for-NaN.
				checkBound32(t, &p, src[i], dec[i])
			} else {
				checkBound32(t, &p, src[i], dec[i])
			}
		}
	}
}

func TestSerialRawChunkFallback(t *testing.T) {
	// Pure random mantissas at a tight bound are incompressible; chunks
	// must be flagged raw and reproduce the input exactly.
	rng := rand.New(rand.NewSource(12))
	n := ChunkWords32 * 2
	src := make([]float32, n)
	for i := range src {
		// Random mantissa and sign with a huge random exponent: every value
		// overflows the bin range and is stored losslessly, and the bytes
		// carry no exploitable structure.
		bits := rng.Uint32()&0x807FFFFF | uint32(200+rng.Intn(54))<<23
		src[i] = math.Float32frombits(bits)
	}
	comp, err := CompressSerial32(src, ABS, MinNormal32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	_, _, raws, _, err := ChunkTable(comp, &h)
	if err != nil {
		t.Fatal(err)
	}
	anyRaw := false
	for _, r := range raws {
		anyRaw = anyRaw || r
	}
	if !anyRaw {
		t.Error("no raw chunks on incompressible input")
	}
	dec, err := DecompressSerial32(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if raws[i/ChunkWords32] {
			if math.Float32bits(dec[i]) != math.Float32bits(src[i]) {
				t.Fatalf("raw chunk value %d not bit-exact", i)
			}
		}
	}
	// Worst-case expansion stays capped near 1x plus table overhead.
	if float64(len(comp)) > float64(n*4)*1.01+float64(headerSize) {
		t.Errorf("incompressible input expanded to %d bytes from %d", len(comp), n*4)
	}
}

func TestSerialCompressionRatioSmoothData(t *testing.T) {
	src := smooth32(1<<20, 7)
	for _, c := range []struct {
		bound    float64
		minRatio float64
	}{{1e-1, 15}, {1e-2, 8}, {1e-3, 5}, {1e-4, 3}} {
		comp, err := CompressSerial32(src, ABS, c.bound)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(len(src)*4) / float64(len(comp))
		if ratio < c.minRatio {
			t.Errorf("bound %g: ratio %.2f below %g", c.bound, ratio, c.minRatio)
		}
		// Ratios must decrease with tighter bounds (checked pairwise below).
	}
	var prev float64 = math.Inf(1)
	for _, bound := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		comp, _ := CompressSerial32(src, ABS, bound)
		ratio := float64(len(src)*4) / float64(len(comp))
		if ratio > prev {
			t.Errorf("ratio increased from %.2f to %.2f at bound %g", prev, ratio, bound)
		}
		prev = ratio
	}
}

func TestDecompressRejectsCorruptStreams(t *testing.T) {
	src := smooth32(10000, 3)
	comp, err := CompressSerial32(src, ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":       func(b []byte) []byte { return nil },
		"short":       func(b []byte) []byte { return b[:headerSize-1] },
		"bad magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version": func(b []byte) []byte { b[4] = 99; return b },
		"bad mode":    func(b []byte) []byte { b[5] |= 3; return b },
		"truncated payload": func(b []byte) []byte {
			return b[:len(b)-5]
		},
		"extra payload": func(b []byte) []byte {
			return append(b, 0, 1, 2)
		},
		"size table too large": func(b []byte) []byte {
			b[headerSize] = 0xFF
			b[headerSize+1] = 0xFF
			b[headerSize+2] = 0xFF
			return b
		},
		"wrong precision": func(b []byte) []byte { b[5] |= 4; return b },
	}
	for name, corrupt := range cases {
		buf := append([]byte(nil), comp...)
		buf = corrupt(buf)
		if _, err := DecompressSerial32(buf, nil); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestDecompressDoesNotPanicOnFuzzedStreams(t *testing.T) {
	src := smooth32(30000, 4)
	comp, err := CompressSerial32(src, REL, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 500; iter++ {
		buf := append([]byte(nil), comp...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
		}
		// Must either fail cleanly or succeed; never panic.
		dec, err := DecompressSerial32(buf, nil)
		_ = dec
		_ = err
	}
}

func TestEmptyInput(t *testing.T) {
	comp, err := CompressSerial32(nil, ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressSerial32(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("got %d values from empty input", len(dec))
	}
}

func TestDecompressReusesDst(t *testing.T) {
	src := smooth32(5000, 5)
	comp, _ := CompressSerial32(src, ABS, 1e-3)
	buf := make([]float32, 8000)
	dec, err := DecompressSerial32(comp, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &dec[0] != &buf[0] {
		t.Error("dst buffer with sufficient capacity not reused")
	}
}

func TestHeaderRoundtrip(t *testing.T) {
	// A count above 2^32 exercises the full 64-bit field; 2^33 keeps the
	// chunk-size table at 16 MB (2^40 needed 2 GB, which the race
	// detector's shadow memory turns into an out-of-memory kill). Where
	// int is 32-bit, MaxElems is below 2^32 and caps the count instead.
	count := uint64(1) << 33
	if count > MaxElems {
		count = MaxElems
	}
	h := Header{Mode: NOA, Prec64: true, Raw: true, Bound: 1e-5, NOARange: 123.5, Count: count}
	h.NumChunks = numChunksFor(int(h.Count), h.chunkElems())
	buf := AppendHeader(nil, &h)
	// Patch: ParseHeader validates chunk count against Count, so we need
	// the real value; the buffer already has it.
	got, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header roundtrip: got %+v, want %+v", got, h)
	}
}
