package core

// Differential suite pinning every word-parallel kernel in stages.go and
// internal/bits to the scalar reference in internal/core/ref. The corpus
// reuses the PR-1 adversarial shapes — chunk-edge lengths, words derived
// from NaN/Inf/denormal floats, all-zero/all-ones/alternating bit columns —
// plus a deterministic quick-check style randomized generator, so a fast
// path that diverges on any input class fails here before it can perturb a
// golden vector.

import (
	"bytes"
	"math"
	"testing"

	"pfpl/internal/bits"
	"pfpl/internal/core/ref"
)

// diffRNG is splitmix64, the same seed-stable generator the conformance
// corpus uses, so these sweeps never drift with the Go toolchain.
type diffRNG struct{ state uint64 }

func (r *diffRNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// edgeLens probes the word-parallel stride boundaries (8-wide delta unroll,
// 32/64-word shuffle groups, 64-byte zero-elim blocks) and the chunk edges.
var edgeLens = []int{
	0, 1, 2, 3, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
	511, 512, 513, 1000, 2047, 2048, 2049, 4095, 4096, 4097,
}

// specialWords32 are quantized-word bit patterns derived from IEEE
// specials: NaN payloads, infinities, denormals, sign boundaries, and the
// wraparound extremes that stress the negabinary conversion.
var specialWords32 = []uint32{
	0, 1, 2, 0x7FC00000, 0xFFC00001, 0x7F800000, 0xFF800000,
	0x00000001, 0x007FFFFF, 0x00400000, 0x80000000, 0x80000001,
	0x7FFFFFFF, 0xFFFFFFFF, 0xAAAAAAAA, 0x55555555,
}

var specialWords64 = []uint64{
	0, 1, 2, 0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000000,
	0xFFF0000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
	0x8000000000000000, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
	0xAAAAAAAAAAAAAAAA, 0x5555555555555555,
}

// wordPatterns32 returns the adversarial word corpora for one length.
func wordPatterns32(n int, r *diffRNG) map[string][]uint32 {
	out := map[string][]uint32{}
	mk := func(name string, f func(i int) uint32) {
		a := make([]uint32, n)
		for i := range a {
			a[i] = f(i)
		}
		out[name] = a
	}
	mk("random", func(int) uint32 { return uint32(r.next()) })
	mk("zero", func(int) uint32 { return 0 })
	mk("ones", func(int) uint32 { return 0xFFFFFFFF })
	mk("alt-columns", func(i int) uint32 {
		if i&1 == 0 {
			return 0xAAAAAAAA
		}
		return 0x55555555
	})
	mk("specials", func(i int) uint32 { return specialWords32[i%len(specialWords32)] })
	mk("ramp", func(i int) uint32 { return uint32(i) })
	mk("overflow-steps", func(i int) uint32 { return uint32(i) * 0x7FFFFFFF })
	return out
}

func wordPatterns64(n int, r *diffRNG) map[string][]uint64 {
	out := map[string][]uint64{}
	mk := func(name string, f func(i int) uint64) {
		a := make([]uint64, n)
		for i := range a {
			a[i] = f(i)
		}
		out[name] = a
	}
	mk("random", func(int) uint64 { return r.next() })
	mk("zero", func(int) uint64 { return 0 })
	mk("ones", func(int) uint64 { return 0xFFFFFFFFFFFFFFFF })
	mk("alt-columns", func(i int) uint64 {
		if i&1 == 0 {
			return 0xAAAAAAAAAAAAAAAA
		}
		return 0x5555555555555555
	})
	mk("specials", func(i int) uint64 { return specialWords64[i%len(specialWords64)] })
	mk("ramp", func(i int) uint64 { return uint64(i) })
	return out
}

// bytePatterns returns the adversarial byte corpora for the zero-elim
// kernels: densities from all-zero to incompressible, run structures that
// stress the repeat bitmaps, and real post-shuffle chunk bytes.
func bytePatterns(n int, r *diffRNG) map[string][]byte {
	out := map[string][]byte{}
	mk := func(name string, f func(i int) byte) {
		d := make([]byte, n)
		for i := range d {
			d[i] = f(i)
		}
		out[name] = d
	}
	mk("zero", func(int) byte { return 0 })
	mk("dense", func(int) byte { return byte(1 + r.next()%255) })
	mk("sparse1pct", func(int) byte {
		if r.next()%100 == 0 {
			return byte(1 + r.next()%255)
		}
		return 0
	})
	mk("half", func(int) byte {
		if r.next()&1 == 0 {
			return byte(r.next())
		}
		return 0
	})
	mk("runs", func(i int) byte { return byte(i / 37) })
	mk("alternating", func(i int) byte {
		if i&1 == 0 {
			return 0xAA
		}
		return 0
	})
	mk("ff-blocks", func(i int) byte {
		if i/64%2 == 0 {
			return 0xFF
		}
		return 0
	})
	return out
}

// shuffledChunkBytes runs the real upstream pipeline (quantize sine field →
// delta/negabinary → bit shuffle → serialize) so the zero-elim kernels also
// meet the exact byte distribution they see in production.
func shuffledChunkBytes(t *testing.T) []byte {
	t.Helper()
	p, err := NewParams(ABS, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint32, ChunkWords32)
	for i := range words {
		words[i] = p.EncodeValue32(float32(math.Sin(float64(i) * 0.01)))
	}
	DeltaNegaForward32(words)
	BitShuffle32(words)
	data := make([]byte, ChunkBytes)
	for i, w := range words {
		data[i*4] = byte(w)
		data[i*4+1] = byte(w >> 8)
		data[i*4+2] = byte(w >> 16)
		data[i*4+3] = byte(w >> 24)
	}
	return data
}

func TestDifferentialDeltaNega32(t *testing.T) {
	r := &diffRNG{state: 0xD1FF32}
	for _, n := range edgeLens {
		for name, data := range wordPatterns32(n, r) {
			fast := append([]uint32(nil), data...)
			slow := append([]uint32(nil), data...)
			DeltaNegaForward32(fast)
			ref.DeltaNegaForward(slow)
			if !equalU32(fast, slow) {
				t.Fatalf("n=%d %s: forward fast != ref", n, name)
			}
			// Cross-inverse both directions, each must restore the input.
			DeltaNegaInverse32(fast)
			ref.DeltaNegaInverse(slow)
			if !equalU32(fast, data) || !equalU32(slow, data) {
				t.Fatalf("n=%d %s: inverse did not roundtrip", n, name)
			}
		}
	}
}

func TestDifferentialDeltaNega64(t *testing.T) {
	r := &diffRNG{state: 0xD1FF64}
	for _, n := range edgeLens {
		for name, data := range wordPatterns64(n, r) {
			fast := append([]uint64(nil), data...)
			slow := append([]uint64(nil), data...)
			DeltaNegaForward64(fast)
			ref.DeltaNegaForward(slow)
			if !equalU64(fast, slow) {
				t.Fatalf("n=%d %s: forward fast != ref", n, name)
			}
			DeltaNegaInverse64(fast)
			ref.DeltaNegaInverse(slow)
			if !equalU64(fast, data) || !equalU64(slow, data) {
				t.Fatalf("n=%d %s: inverse did not roundtrip", n, name)
			}
		}
	}
}

func TestDifferentialTranspose(t *testing.T) {
	r := &diffRNG{state: 0x7A05}
	for trial := 0; trial < 200; trial++ {
		var fast, slow [32]uint32
		for i := range fast {
			switch trial % 4 {
			case 0:
				fast[i] = uint32(r.next())
			case 1:
				fast[i] = specialWords32[i%len(specialWords32)]
			case 2:
				fast[i] = 1 << uint(i)
			default:
				fast[i] = 0xAAAAAAAA >> uint(i%2)
			}
		}
		slow = fast
		orig := fast
		bits.Transpose32(&fast)
		ref.Transpose(slow[:])
		if fast != slow {
			t.Fatalf("trial %d: Transpose32 fast != ref", trial)
		}
		bits.Transpose32(&fast)
		if fast != orig {
			t.Fatalf("trial %d: Transpose32 not an involution", trial)
		}

		var fast64, slow64 [64]uint64
		for i := range fast64 {
			switch trial % 3 {
			case 0:
				fast64[i] = r.next()
			case 1:
				fast64[i] = specialWords64[i%len(specialWords64)]
			default:
				fast64[i] = 1 << uint(i)
			}
		}
		slow64 = fast64
		orig64 := fast64
		bits.Transpose64(&fast64)
		ref.Transpose(slow64[:])
		if fast64 != slow64 {
			t.Fatalf("trial %d: Transpose64 fast != ref", trial)
		}
		bits.Transpose64(&fast64)
		if fast64 != orig64 {
			t.Fatalf("trial %d: Transpose64 not an involution", trial)
		}
	}
}

func TestDifferentialBitShuffle(t *testing.T) {
	r := &diffRNG{state: 0xB175}
	for _, groups := range []int{0, 1, 2, 7, 128} {
		a32 := make([]uint32, groups*32)
		for i := range a32 {
			a32[i] = uint32(r.next())
		}
		fast := append([]uint32(nil), a32...)
		slow := append([]uint32(nil), a32...)
		BitShuffle32(fast)
		ref.BitShuffle32(slow)
		if !equalU32(fast, slow) {
			t.Fatalf("groups=%d: BitShuffle32 fast != ref", groups)
		}

		a64 := make([]uint64, groups*64)
		for i := range a64 {
			a64[i] = r.next()
		}
		fast64 := append([]uint64(nil), a64...)
		slow64 := append([]uint64(nil), a64...)
		BitShuffle64(fast64)
		ref.BitShuffle64(slow64)
		if !equalU64(fast64, slow64) {
			t.Fatalf("groups=%d: BitShuffle64 fast != ref", groups)
		}
	}
}

// shuffleMatrices returns the fused shuffle-pack corpora for n words of
// the given width: random words, a single set bit, and all ones.
func shuffleMatrices(n, width int, r *diffRNG) map[string][]uint64 {
	mask := uint64(1)<<(width-1)<<1 - 1
	random := make([]uint64, n)
	single := make([]uint64, n)
	ones := make([]uint64, n)
	for i := range random {
		random[i] = r.next() & mask
		ones[i] = mask
	}
	single[r.next()%uint64(n)] = 1 << (r.next() % uint64(width))
	return map[string][]uint64{"random": random, "single-bit": single, "all-ones": ones}
}

// The fused shuffle-pack kernels must produce the bytes of the reference
// shuffle followed by a scalar little-endian pack at every padded length a
// chunk can have, and the unpack must restore the words.
func TestDifferentialShufflePack(t *testing.T) {
	r := &diffRNG{state: 0x5AFE}
	for n := 32; n <= ChunkWords32; n += 32 {
		for name, m := range shuffleMatrices(n, 32, r) {
			src := make([]uint32, n)
			for i, w := range m {
				src[i] = uint32(w)
			}
			orig := append([]uint32(nil), src...)
			fast := bytes.Repeat([]byte{0xA5}, n*4)
			slow := make([]byte, n*4)
			ShufflePack32(fast, src)
			ref.ShufflePack32(slow, src)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d %s: ShufflePack32 fast != ref", n, name)
			}
			if !equalU32(src, orig) {
				t.Fatalf("n=%d %s: ShufflePack32 modified its source", n, name)
			}
			back := make([]uint32, n)
			backRef := make([]uint32, n)
			UnpackShuffle32(back, fast)
			ref.UnpackShuffle32(backRef, fast)
			if !equalU32(back, backRef) || !equalU32(back, orig) {
				t.Fatalf("n=%d %s: UnpackShuffle32 fast != ref or != source", n, name)
			}
		}
	}
	for n := 64; n <= ChunkWords64; n += 64 {
		for name, src := range shuffleMatrices(n, 64, r) {
			orig := append([]uint64(nil), src...)
			fast := bytes.Repeat([]byte{0xA5}, n*8)
			slow := make([]byte, n*8)
			ShufflePack64(fast, src)
			ref.ShufflePack64(slow, src)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d %s: ShufflePack64 fast != ref", n, name)
			}
			if !equalU64(src, orig) {
				t.Fatalf("n=%d %s: ShufflePack64 modified its source", n, name)
			}
			back := make([]uint64, n)
			backRef := make([]uint64, n)
			UnpackShuffle64(back, fast)
			ref.UnpackShuffle64(backRef, fast)
			if !equalU64(back, backRef) || !equalU64(back, orig) {
				t.Fatalf("n=%d %s: UnpackShuffle64 fast != ref or != source", n, name)
			}
		}
	}
}

func TestDifferentialZeroBitmap(t *testing.T) {
	r := &diffRNG{state: 0x2E40}
	for _, n := range edgeLens {
		for name, data := range bytePatterns(n, r) {
			fast := make([]byte, BitmapLen(n))
			slow := make([]byte, BitmapLen(n))
			buildZeroBitmapInto(data, fast)
			ref.BuildZeroBitmapInto(data, slow)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d %s: zero bitmap fast != ref", n, name)
			}
		}
	}
}

func TestDifferentialRepeatBitmap(t *testing.T) {
	r := &diffRNG{state: 0x4EBE}
	for _, n := range edgeLens {
		for name, data := range bytePatterns(n, r) {
			fast := make([]byte, BitmapLen(n))
			slow := make([]byte, BitmapLen(n))
			buildRepeatBitmapInto(data, fast)
			ref.BuildRepeatBitmapInto(data, slow)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d %s: repeat bitmap fast != ref", n, name)
			}
		}
	}
}

func TestDifferentialAppendSelected(t *testing.T) {
	r := &diffRNG{state: 0xA99E}
	for _, n := range edgeLens {
		for name, data := range bytePatterns(n, r) {
			// Nonzero-byte selection against the level-1 bitmap.
			bm1 := ref.BuildZeroBitmap(data)
			fast := appendSelected(nil, data, bm1)
			slow := ref.AppendNonZero(nil, data, bm1)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d %s: nonzero selection fast != ref", n, name)
			}
			// Non-repeat selection against the level-up repeat bitmap.
			bm2 := ref.BuildRepeatBitmap(data)
			fast = appendSelected(nil, data, bm2)
			slow = ref.AppendNonRepeat(nil, data)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("n=%d %s: non-repeat selection fast != ref", n, name)
			}
		}
	}
}

func TestDifferentialExpand(t *testing.T) {
	r := &diffRNG{state: 0xE59A}
	for _, n := range edgeLens {
		for name, data := range bytePatterns(n, r) {
			bm1 := ref.BuildZeroBitmap(data)
			nz := appendSelected(nil, data, bm1)
			fastDst := make([]byte, n)
			slowDst := make([]byte, n)
			fu, ferr := expandZero(bm1, nz, fastDst)
			su, serr := ref.ExpandZero(bm1, nz, slowDst)
			if ferr != nil || serr != nil {
				t.Fatalf("n=%d %s: expandZero errored on valid input: %v / %v", n, name, ferr, serr)
			}
			if fu != su || !bytes.Equal(fastDst, slowDst) || !bytes.Equal(fastDst, data) {
				t.Fatalf("n=%d %s: expandZero fast != ref", n, name)
			}
			// Truncated nonzero stream must fail in both implementations.
			if len(nz) > 0 {
				if _, err := expandZero(bm1, nz[:len(nz)-1], fastDst); err == nil {
					t.Fatalf("n=%d %s: fast expandZero accepted truncation", n, name)
				}
				if _, err := ref.ExpandZero(bm1, nz[:len(nz)-1], slowDst); err == nil {
					t.Fatalf("n=%d %s: ref expandZero accepted truncation", n, name)
				}
			}

			bm2 := ref.BuildRepeatBitmap(data)
			nr := appendSelected(nil, data, bm2)
			fu, ferr = expandRepeat(bm2, nr, fastDst)
			su, serr = ref.ExpandRepeat(bm2, nr, slowDst)
			if ferr != nil || serr != nil {
				t.Fatalf("n=%d %s: expandRepeat errored on valid input: %v / %v", n, name, ferr, serr)
			}
			if fu != su || !bytes.Equal(fastDst, slowDst) || !bytes.Equal(fastDst, data) {
				t.Fatalf("n=%d %s: expandRepeat fast != ref", n, name)
			}
			if len(nr) > 0 {
				if _, err := expandRepeat(bm2, nr[:len(nr)-1], fastDst); err == nil {
					t.Fatalf("n=%d %s: fast expandRepeat accepted truncation", n, name)
				}
				if _, err := ref.ExpandRepeat(bm2, nr[:len(nr)-1], slowDst); err == nil {
					t.Fatalf("n=%d %s: ref expandRepeat accepted truncation", n, name)
				}
			}
		}
	}
}

func TestDifferentialZeroElim(t *testing.T) {
	r := &diffRNG{state: 0x0E11}
	corpora := func(n int) map[string][]byte { return bytePatterns(n, r) }
	check := func(t *testing.T, name string, data []byte) {
		t.Helper()
		fastEnc := ZeroElimEncode(data, nil)
		slowEnc := ref.ZeroElimEncode(data, nil)
		if !bytes.Equal(fastEnc, slowEnc) {
			t.Fatalf("%s: encode fast != ref (%d vs %d bytes)", name, len(fastEnc), len(slowEnc))
		}
		// Decode each encoding with the opposite implementation.
		fastDst := make([]byte, len(data))
		slowDst := make([]byte, len(data))
		fu, ferr := ZeroElimDecode(slowEnc, fastDst)
		su, serr := ref.ZeroElimDecode(fastEnc, slowDst)
		if ferr != nil || serr != nil {
			t.Fatalf("%s: decode errored: %v / %v", name, ferr, serr)
		}
		if fu != su || fu != len(fastEnc) {
			t.Fatalf("%s: consumed %d / %d of %d bytes", name, fu, su, len(fastEnc))
		}
		if !bytes.Equal(fastDst, data) || !bytes.Equal(slowDst, data) {
			t.Fatalf("%s: roundtrip mismatch", name)
		}
		// Truncations must be rejected by both (sampled cut points).
		for cut := 0; cut < len(fastEnc); cut += 1 + len(fastEnc)/13 {
			_, ferr := ZeroElimDecode(fastEnc[:cut], fastDst)
			_, serr := ref.ZeroElimDecode(fastEnc[:cut], slowDst)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("%s: truncation to %d: fast err %v, ref err %v", name, cut, ferr, serr)
			}
			if ferr == nil {
				t.Fatalf("%s: truncation to %d bytes not detected", name, cut)
			}
		}
	}
	for _, n := range edgeLens {
		for name, data := range corpora(n) {
			check(t, entryLabel(name, n), data)
		}
	}
	check(t, "shuffled-chunk", shuffledChunkBytes(t))
}

// TestDifferentialScratchVariants pins the exported scratch codecs to the
// allocating ones: identical bytes, identical consumed counts.
func TestDifferentialScratchVariants(t *testing.T) {
	r := &diffRNG{state: 0x5C4A}
	var s ZeroElimScratch
	for _, n := range []int{0, 1, 63, 64, 65, 4096, ChunkBytes} {
		for name, data := range bytePatterns(n, r) {
			plain := ZeroElimEncode(data, nil)
			scratch := ZeroElimEncodeScratch(data, nil, &s)
			if !bytes.Equal(plain, scratch) {
				t.Fatalf("n=%d %s: scratch encode != plain encode", n, name)
			}
			d1 := make([]byte, n)
			d2 := make([]byte, n)
			u1, err1 := ZeroElimDecode(plain, d1)
			u2, err2 := ZeroElimDecodeScratch(plain, d2, &s)
			if err1 != nil || err2 != nil || u1 != u2 || !bytes.Equal(d1, d2) {
				t.Fatalf("n=%d %s: scratch decode != plain decode (%v/%v)", n, name, err1, err2)
			}
		}
	}
}

// refCodec assembles a chunk codec from the quantizer and the scalar
// reference stages of internal/core/ref: quantize, ref delta+negabinary,
// zero padding to the shuffle group, ref bit shuffle, little-endian pack,
// ref zero elimination, and the raw fallback of the original IEEE bits.
type refCodec[T Float, W uint32 | uint64] struct {
	width            int // word bits: also the shuffle group in words
	encode           func(p *Params, v T) W
	decode           func(p *Params, w W) T
	ieee             func(v T) W
	fromIEEE         func(w W) T
	forward, inverse func([]W)
	shuffle          func([]W)
}

var refCodec32 = refCodec[float32, uint32]{32, (*Params).EncodeValue32, (*Params).DecodeValue32,
	math.Float32bits, math.Float32frombits, ref.DeltaNegaForward[uint32], ref.DeltaNegaInverse[uint32], ref.BitShuffle32}

var refCodec64 = refCodec[float64, uint64]{64, (*Params).EncodeValue64, (*Params).DecodeValue64,
	math.Float64bits, math.Float64frombits, ref.DeltaNegaForward[uint64], ref.DeltaNegaInverse[uint64], ref.BitShuffle64}

func (c refCodec[T, W]) pack(words []W) []byte {
	out := make([]byte, 0, len(words)*c.width/8)
	for _, w := range words {
		for k := 0; k < c.width; k += 8 {
			out = append(out, byte(w>>k))
		}
	}
	return out
}

func (c refCodec[T, W]) unpack(b []byte) []W {
	words := make([]W, len(b)*8/c.width)
	for i := range words {
		for k := 0; k < c.width; k += 8 {
			words[i] |= W(b[i*c.width/8+k/8]) << k
		}
	}
	return words
}

func (c refCodec[T, W]) encodeChunk(p *Params, src []T) ([]byte, bool) {
	padded := (len(src) + c.width - 1) / c.width * c.width
	words := make([]W, len(src), padded)
	for i, v := range src {
		words[i] = c.encode(p, v)
	}
	c.forward(words)
	words = words[:padded]
	c.shuffle(words)
	payload := ref.ZeroElimEncode(c.pack(words), nil)
	if len(payload) < len(src)*c.width/8 {
		return payload, false
	}
	for i, v := range src {
		words[i] = c.ieee(v)
	}
	return c.pack(words[:len(src)]), true
}

func (c refCodec[T, W]) decodeChunk(p *Params, payload []byte, raw bool, n int) ([]T, error) {
	dst := make([]T, n)
	if raw {
		for i, w := range c.unpack(payload) {
			dst[i] = c.fromIEEE(w)
		}
		return dst, nil
	}
	padded := (n + c.width - 1) / c.width * c.width
	data := make([]byte, padded*c.width/8)
	used, err := ref.ZeroElimDecode(payload, data)
	if err != nil || used != len(payload) {
		return nil, ErrCorrupt
	}
	words := c.unpack(data)
	c.shuffle(words)
	c.inverse(words[:n])
	for i := range dst {
		dst[i] = c.decode(p, words[i])
	}
	return dst, nil
}

// chunkSources are whole-chunk and partial-chunk inputs covering smooth
// data, special values and random bit patterns, which are incompressible
// and take the raw fallback.
func chunkSources[T Float](full int, special func(i int) T, fromBits func(uint64) T) map[string][]T {
	r := &diffRNG{state: 0xC0DEC}
	smooth := make([]T, full)
	noise := make([]T, full)
	specials := make([]T, 777)
	for i := range smooth {
		smooth[i] = T(math.Sin(float64(i) * 0.01))
		noise[i] = fromBits(r.next())
	}
	for i := range specials {
		specials[i] = special(i)
	}
	return map[string][]T{"smooth": smooth, "smooth-partial": smooth[:full-1000+3], "noise": noise, "specials": specials}
}

// checkChunkCodec compares the production chunk codec of one precision
// byte-for-byte with the reference codec and cross-decodes both payloads.
func checkChunkCodec[T Float, W uint32 | uint64](t *testing.T, c refCodec[T, W], srcs map[string][]T,
	encode func(p *Params, src []T) ([]byte, bool), decode func(p *Params, payload []byte, raw bool, dst []T) error) {
	t.Helper()
	for _, mode := range []Mode{ABS, REL, NOA} {
		p, err := NewParams(mode, 1e-3, 2, c.width == 64)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range srcs {
			label := mode.String() + "/" + name
			payload, raw := encode(&p, src)
			payload = append([]byte(nil), payload...)
			refPayload, refRaw := c.encodeChunk(&p, src)
			if raw != refRaw || !bytes.Equal(payload, refPayload) {
				t.Fatalf("%s: chunk payload differs from the reference codec (raw %v/%v, %d/%d bytes)",
					label, raw, refRaw, len(payload), len(refPayload))
			}
			fromRef := make([]T, len(src))
			if err := decode(&p, refPayload, refRaw, fromRef); err != nil {
				t.Fatalf("%s: decode of reference payload failed: %v", label, err)
			}
			fromProd, err := c.decodeChunk(&p, payload, raw, len(src))
			if err != nil {
				t.Fatalf("%s: reference decode of payload failed: %v", label, err)
			}
			for i := range fromRef {
				if c.ieee(fromRef[i]) != c.ieee(fromProd[i]) {
					t.Fatalf("%s: cross-decoded values diverge at %d", label, i)
				}
			}
		}
	}
}

// TestDifferentialKernelDispatch drives whole chunks of both precisions
// through EncodeChunk32/64 and through a chunk codec assembled from the
// scalar reference stages, and requires byte-identical payloads and
// bit-identical cross-decoded values.
func TestDifferentialKernelDispatch(t *testing.T) {
	var s32 Scratch32
	checkChunkCodec(t, refCodec32,
		chunkSources(ChunkWords32, func(i int) float32 { return math.Float32frombits(specialWords32[i%len(specialWords32)]) },
			func(u uint64) float32 { return math.Float32frombits(uint32(u)) }),
		func(p *Params, src []float32) ([]byte, bool) { return EncodeChunk32(p, src, &s32) },
		func(p *Params, payload []byte, raw bool, dst []float32) error {
			return DecodeChunk32(p, payload, raw, dst, &s32)
		})
	var s64 Scratch64
	checkChunkCodec(t, refCodec64,
		chunkSources(ChunkWords64, func(i int) float64 { return math.Float64frombits(specialWords64[i%len(specialWords64)]) },
			math.Float64frombits),
		func(p *Params, src []float64) ([]byte, bool) { return EncodeChunk64(p, src, &s64) },
		func(p *Params, payload []byte, raw bool, dst []float64) error {
			return DecodeChunk64(p, payload, raw, dst, &s64)
		})
}

// TestDifferentialRandomized is the quick-check style sweep: deterministic
// seeded generation of arbitrary lengths, densities, and word shapes, fast
// vs reference on every kernel.
func TestDifferentialRandomized(t *testing.T) {
	r := &diffRNG{state: 0xCAFE}
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for trial := 0; trial < iters; trial++ {
		n := int(r.next() % 5000)

		// Byte kernels.
		data := make([]byte, n)
		density := r.next() % 101
		for i := range data {
			if r.next()%100 < density {
				data[i] = byte(r.next())
			}
		}
		fastEnc := ZeroElimEncode(data, nil)
		slowEnc := ref.ZeroElimEncode(data, nil)
		if !bytes.Equal(fastEnc, slowEnc) {
			t.Fatalf("trial %d (n=%d density=%d): encode diverged", trial, n, density)
		}
		dst := make([]byte, n)
		used, err := ZeroElimDecode(fastEnc, dst)
		if err != nil || used != len(fastEnc) || !bytes.Equal(dst, data) {
			t.Fatalf("trial %d (n=%d): roundtrip failed (%v)", trial, n, err)
		}

		// Word kernels.
		wn := int(r.next() % 600)
		w32 := make([]uint32, wn)
		w64 := make([]uint64, wn)
		for i := range w32 {
			v := r.next()
			w32[i] = uint32(v)
			w64[i] = v
		}
		f32s := append([]uint32(nil), w32...)
		s32s := append([]uint32(nil), w32...)
		DeltaNegaForward32(f32s)
		ref.DeltaNegaForward(s32s)
		if !equalU32(f32s, s32s) {
			t.Fatalf("trial %d: delta32 diverged", trial)
		}
		DeltaNegaInverse32(f32s)
		if !equalU32(f32s, w32) {
			t.Fatalf("trial %d: delta32 roundtrip failed", trial)
		}
		f64s := append([]uint64(nil), w64...)
		s64s := append([]uint64(nil), w64...)
		DeltaNegaForward64(f64s)
		ref.DeltaNegaForward(s64s)
		if !equalU64(f64s, s64s) {
			t.Fatalf("trial %d: delta64 diverged", trial)
		}
		DeltaNegaInverse64(f64s)
		if !equalU64(f64s, w64) {
			t.Fatalf("trial %d: delta64 roundtrip failed", trial)
		}
	}
}

func entryLabel(name string, n int) string {
	return name + "/" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
