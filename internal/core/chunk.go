package core

import (
	"encoding/binary"

	"pfpl/internal/obs"
)

// MaxChunkPayload bounds the encoded size of one chunk: the zero-elimination
// stage can expand an incompressible chunk by the bitmap overhead plus the
// padding to a whole word group, but the raw fallback caps the stored form
// at the chunk's own size. Scratch buffers still need room for the encoder
// to discover that the chunk is incompressible.
const MaxChunkPayload = ChunkBytes + ChunkBytes/4

// Scratch32 holds the working storage for encoding or decoding one
// single-precision chunk. Reusing it across chunks keeps the hot loops
// allocation-free; each worker owns one.
//
// Rec, Track, and Unit optionally attach a span recorder: when Rec is
// non-nil the chunk codecs record one span per pipeline stage on the given
// track, labelled with the unit (chunk index). A nil Rec costs one pointer
// check per stage and nothing else.
type Scratch32 struct {
	words [ChunkWords32]uint32
	bytes [ChunkBytes]byte
	out   [MaxChunkPayload]byte
	zs    ZeroElimScratch
	q     QuantScratch

	Rec   *obs.Recorder
	Track int32
	Unit  int32
}

// Scratch64 is the double-precision counterpart of Scratch32.
type Scratch64 struct {
	words [ChunkWords64]uint64
	bytes [ChunkBytes]byte
	out   [MaxChunkPayload]byte
	zs    ZeroElimScratch
	q     QuantScratch

	Rec   *obs.Recorder
	Track int32
	Unit  int32
}

// PaddedWords32 returns n rounded up to the 32-word shuffle group.
func PaddedWords32(n int) int { return (n + 31) &^ 31 }

// PaddedWords64 returns n rounded up to the 64-word shuffle group.
func PaddedWords64(n int) int { return (n + 63) &^ 63 }

// EncodeChunk32 compresses src (1..ChunkWords32 values) through the fused
// quantize + delta/negabinary + bit-shuffle + zero-elimination pipeline.
// It returns the payload (aliasing s.out) and whether the chunk was stored
// raw because compression would not have shrunk it (paper §III.E). The raw
// payload holds the original, bit-exact IEEE values. The shuffle writes its
// little-endian bytes directly (ShufflePack32), so the shuffle span covers
// the word-to-byte pack.
//
//pfpl:hotpath
func EncodeChunk32(p *Params, src []float32, s *Scratch32) (payload []byte, raw bool) {
	rec := s.Rec
	t := rec.Now()
	n := len(src)
	p.QuantizeChunk32(s.words[:], src, &s.q)
	t = rec.StageSpan(obs.StageQuantize, s.Track, s.Unit, t)
	DeltaNegaForward32(s.words[:n])
	padded := PaddedWords32(n)
	for i := n; i < padded; i++ {
		s.words[i] = 0
	}
	t = rec.StageSpan(obs.StageDelta, s.Track, s.Unit, t)
	ShufflePack32(s.bytes[:], s.words[:padded])
	t = rec.StageSpan(obs.StageShuffle, s.Track, s.Unit, t)
	payload = ZeroElimEncodeScratch(s.bytes[:padded*4], s.out[:0], &s.zs)
	if len(payload) >= n*4 {
		// Incompressible: emit the original chunk data and flag it.
		for i, v := range src {
			binary.LittleEndian.PutUint32(s.out[i*4:], f32bits(v))
		}
		rec.StageSpanOutcome(obs.StageEncode, s.Track, s.Unit, t, obs.OutcomeRaw, int64(n)*4, int64(n)*4)
		return s.out[:n*4], true
	}
	rec.StageSpanOutcome(obs.StageEncode, s.Track, s.Unit, t, obs.OutcomeCompressed, int64(n)*4, int64(len(payload)))
	return payload, false
}

// DecodeChunk32 reverses EncodeChunk32, writing len(dst) values.
//
//pfpl:hotpath
func DecodeChunk32(p *Params, payload []byte, raw bool, dst []float32, s *Scratch32) error {
	rec := s.Rec
	t := rec.Now()
	n := len(dst)
	if raw {
		if len(payload) != n*4 {
			return ErrCorrupt
		}
		for i := range dst {
			dst[i] = f32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
		}
		rec.StageSpanOutcome(obs.StageDecode, s.Track, s.Unit, t, obs.OutcomeRaw, int64(len(payload)), int64(n)*4)
		return nil
	}
	padded := PaddedWords32(n)
	used, err := ZeroElimDecodeScratch(payload, s.bytes[:padded*4], &s.zs)
	if err != nil {
		return err
	}
	if used != len(payload) {
		return ErrCorrupt
	}
	UnpackShuffle32(s.words[:padded], s.bytes[:])
	DeltaNegaInverse32(s.words[:n])
	p.DequantizeChunk32(dst, s.words[:n], &s.q)
	rec.StageSpanOutcome(obs.StageDecode, s.Track, s.Unit, t, obs.OutcomeCompressed, int64(len(payload)), int64(n)*4)
	return nil
}

// EncodeChunk64 is the double-precision counterpart of EncodeChunk32; all
// but the byte-granularity final stage operate on 64-bit words (§III.D).
//
//pfpl:hotpath
func EncodeChunk64(p *Params, src []float64, s *Scratch64) (payload []byte, raw bool) {
	rec := s.Rec
	t := rec.Now()
	n := len(src)
	p.QuantizeChunk64(s.words[:], src, &s.q)
	t = rec.StageSpan(obs.StageQuantize, s.Track, s.Unit, t)
	DeltaNegaForward64(s.words[:n])
	padded := PaddedWords64(n)
	for i := n; i < padded; i++ {
		s.words[i] = 0
	}
	t = rec.StageSpan(obs.StageDelta, s.Track, s.Unit, t)
	ShufflePack64(s.bytes[:], s.words[:padded])
	t = rec.StageSpan(obs.StageShuffle, s.Track, s.Unit, t)
	payload = ZeroElimEncodeScratch(s.bytes[:padded*8], s.out[:0], &s.zs)
	if len(payload) >= n*8 {
		for i, v := range src {
			binary.LittleEndian.PutUint64(s.out[i*8:], f64bits(v))
		}
		rec.StageSpanOutcome(obs.StageEncode, s.Track, s.Unit, t, obs.OutcomeRaw, int64(n)*8, int64(n)*8)
		return s.out[:n*8], true
	}
	rec.StageSpanOutcome(obs.StageEncode, s.Track, s.Unit, t, obs.OutcomeCompressed, int64(n)*8, int64(len(payload)))
	return payload, false
}

// DecodeChunk64 reverses EncodeChunk64.
//
//pfpl:hotpath
func DecodeChunk64(p *Params, payload []byte, raw bool, dst []float64, s *Scratch64) error {
	rec := s.Rec
	t := rec.Now()
	n := len(dst)
	if raw {
		if len(payload) != n*8 {
			return ErrCorrupt
		}
		for i := range dst {
			dst[i] = f64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		rec.StageSpanOutcome(obs.StageDecode, s.Track, s.Unit, t, obs.OutcomeRaw, int64(len(payload)), int64(n)*8)
		return nil
	}
	padded := PaddedWords64(n)
	used, err := ZeroElimDecodeScratch(payload, s.bytes[:padded*8], &s.zs)
	if err != nil {
		return err
	}
	if used != len(payload) {
		return ErrCorrupt
	}
	UnpackShuffle64(s.words[:padded], s.bytes[:])
	DeltaNegaInverse64(s.words[:n])
	p.DequantizeChunk64(dst, s.words[:n], &s.q)
	rec.StageSpanOutcome(obs.StageDecode, s.Track, s.Unit, t, obs.OutcomeCompressed, int64(len(payload)), int64(n)*8)
	return nil
}
