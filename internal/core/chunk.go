package core

import (
	"pfpl/internal/bits"
	"pfpl/internal/obs"
)

// MaxChunkPayload bounds the encoded size of one chunk: the zero-elimination
// stage can expand an incompressible chunk by the bitmap overhead plus the
// padding to a whole word group, but the raw fallback caps the stored form
// at the chunk's own size. Scratch buffers still need room for the encoder
// to discover that the chunk is incompressible.
const MaxChunkPayload = ChunkBytes + ChunkBytes/4

// Scratch holds the working storage for encoding or decoding one chunk of
// values T through words W of the same width. Reusing it across chunks
// keeps the hot loops allocation-free; each worker owns one. The word
// buffer is sized for the narrower word (an array length cannot depend on
// W), so a double-precision chunk uses its first half.
//
// Rec, Track, and Unit optionally attach a span recorder: when Rec is
// non-nil the chunk codecs record one span per pipeline stage on the given
// track, labelled with the unit (chunk index). A nil Rec costs one pointer
// check per stage and nothing else.
type Scratch[T Float, W bits.Word] struct {
	words [ChunkWords32]W
	bytes [ChunkBytes]byte
	out   [MaxChunkPayload]byte
	zs    ZeroElimScratch
	q     QuantScratch

	Rec   *obs.Recorder
	Track int32
	Unit  int32
}

// Scratch32 is the single-precision Scratch.
type Scratch32 = Scratch[float32, uint32]

// Scratch64 is the double-precision Scratch.
type Scratch64 = Scratch[float64, uint64]

// PaddedWords returns n rounded up to the shuffle group of W, as many
// words as a word has bits.
func PaddedWords[W bits.Word](n int) int {
	g := bits.Width[W]()
	return (n + g - 1) &^ (g - 1)
}

// PaddedWords32 is PaddedWords for 32-bit words.
func PaddedWords32(n int) int { return PaddedWords[uint32](n) }

// PaddedWords64 is PaddedWords for 64-bit words.
func PaddedWords64(n int) int { return PaddedWords[uint64](n) }

// EncodeChunk compresses src (1..ChunkBytes/size values) through the fused
// quantize + delta/negabinary + bit-shuffle + zero-elimination pipeline;
// all but the byte-granular final stage operate on words as wide as the
// values (§III.D). It returns the payload (aliasing s.out) and whether the
// chunk was stored raw because compression would not have shrunk it (paper
// §III.E). The raw payload holds the original, bit-exact IEEE values. The
// shuffle writes its little-endian bytes directly (ShufflePack32/64), so
// the shuffle span covers the word-to-byte pack.
//
//pfpl:hotpath
func EncodeChunk[T Float, W bits.Word](p *Params, src []T, s *Scratch[T, W]) (payload []byte, raw bool) {
	rec := s.Rec
	t := rec.Now()
	n := len(src)
	size := bits.Width[W]() / 8
	QuantizeChunk(p, s.words[:], src, &s.q)
	t = rec.StageSpan(obs.StageQuantize, s.Track, s.Unit, t)
	DeltaNegaForward(s.words[:n])
	padded := PaddedWords[W](n)
	clear(s.words[n:padded])
	t = rec.StageSpan(obs.StageDelta, s.Track, s.Unit, t)
	shufflePack(s.bytes[:], s.words[:padded])
	t = rec.StageSpan(obs.StageShuffle, s.Track, s.Unit, t)
	payload = ZeroElimEncodeScratch(s.bytes[:padded*size], s.out[:0], &s.zs)
	if len(payload) >= n*size {
		// Incompressible: emit the original chunk data and flag it.
		for i, v := range src {
			bits.PutLE(s.out[i*size:], wordOf[T, W](v))
		}
		rec.StageSpanOutcome(obs.StageEncode, s.Track, s.Unit, t, obs.OutcomeRaw, int64(n)*int64(size), int64(n)*int64(size))
		return s.out[:n*size], true
	}
	rec.StageSpanOutcome(obs.StageEncode, s.Track, s.Unit, t, obs.OutcomeCompressed, int64(n)*int64(size), int64(len(payload)))
	return payload, false
}

// DecodeChunk reverses EncodeChunk, writing len(dst) values.
//
//pfpl:hotpath
func DecodeChunk[T Float, W bits.Word](p *Params, payload []byte, raw bool, dst []T, s *Scratch[T, W]) error {
	rec := s.Rec
	t := rec.Now()
	n := len(dst)
	size := bits.Width[W]() / 8
	if raw {
		if len(payload) != n*size {
			return ErrCorrupt
		}
		for i := range dst {
			dst[i] = valueOf[T](bits.LE[W](payload[i*size:]))
		}
		rec.StageSpanOutcome(obs.StageDecode, s.Track, s.Unit, t, obs.OutcomeRaw, int64(len(payload)), int64(n)*int64(size))
		return nil
	}
	padded := PaddedWords[W](n)
	used, err := ZeroElimDecodeScratch(payload, s.bytes[:padded*size], &s.zs)
	if err != nil {
		return err
	}
	if used != len(payload) {
		return ErrCorrupt
	}
	unpackShuffle(s.words[:padded], s.bytes[:])
	DeltaNegaInverse(s.words[:n])
	DequantizeChunk(p, dst, s.words[:n], &s.q)
	rec.StageSpanOutcome(obs.StageDecode, s.Track, s.Unit, t, obs.OutcomeCompressed, int64(len(payload)), int64(n)*int64(size))
	return nil
}

// EncodeChunk32 is EncodeChunk at single precision.
func EncodeChunk32(p *Params, src []float32, s *Scratch32) ([]byte, bool) {
	return EncodeChunk(p, src, s)
}

// DecodeChunk32 is DecodeChunk at single precision.
func DecodeChunk32(p *Params, payload []byte, raw bool, dst []float32, s *Scratch32) error {
	return DecodeChunk(p, payload, raw, dst, s)
}

// EncodeChunk64 is EncodeChunk at double precision.
func EncodeChunk64(p *Params, src []float64, s *Scratch64) ([]byte, bool) {
	return EncodeChunk(p, src, s)
}

// DecodeChunk64 is DecodeChunk at double precision.
func DecodeChunk64(p *Params, payload []byte, raw bool, dst []float64, s *Scratch64) error {
	return DecodeChunk(p, payload, raw, dst, s)
}
