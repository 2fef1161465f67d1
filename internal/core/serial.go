package core

import "pfpl/internal/obs"

// Serial is the single-goroutine executor: the reference implementation
// against which the parallel CPU executor and the simulated GPU executor
// must be bit-for-bit identical.
type Serial[T Float] struct{}

// Encode emits every planned field chunk by chunk on the calling goroutine.
func (Serial[T]) Encode(plans []EncodePlan[T], rec *obs.Recorder) [][]byte {
	track := rec.Track("serial")
	k := GetKernels[T](rec, track)
	defer k.Release()
	comps := make([][]byte, len(plans))
	for f := range plans {
		pl := &plans[f]
		out := pl.Head
		for c := 0; c < pl.Header.NumChunks; c++ {
			//pfpl:ignore intwidth c is a chunk index below NumChunks < 2^32 (uint32 table)
			unit := int32(c)
			payload, raw := k.Encode(&pl.Params, pl.Chunk(c), unit)
			t := rec.Now()
			PutChunkSize(out, c, len(payload), raw)
			out = append(out, payload...)
			rec.StageSpan(obs.StageEmit, track, unit, t)
		}
		comps[f] = out
	}
	return comps
}

// Decode decodes every planned field chunk by chunk on the calling
// goroutine, stopping at the first corrupt chunk.
func (Serial[T]) Decode(plans []DecodePlan[T], rec *obs.Recorder) error {
	k := GetKernels[T](rec, rec.Track("serial"))
	defer k.Release()
	for f := range plans {
		pl := &plans[f]
		for c := 0; c < pl.Header.NumChunks; c++ {
			payload, raw := pl.ChunkPayload(c)
			//pfpl:ignore intwidth c is a chunk index below NumChunks < 2^32 (uint32 table)
			if err := k.Decode(&pl.Params, payload, raw, pl.ChunkDst(c), int32(c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// CompressSerial32 compresses src with the given mode and error bound.
func CompressSerial32(src []float32, mode Mode, bound float64) ([]byte, error) {
	return Compress(Serial[float32]{}, src, mode, bound, nil)
}

// CompressSerial32Traced is CompressSerial32 with per-chunk stage spans
// recorded on rec (nil disables tracing at no cost).
func CompressSerial32Traced(src []float32, mode Mode, bound float64, rec *obs.Recorder) ([]byte, error) {
	return Compress(Serial[float32]{}, src, mode, bound, rec)
}

// DecompressSerial32 decodes a stream produced by any of the float32
// compressors. dst is reused when it has sufficient capacity.
func DecompressSerial32(buf []byte, dst []float32) ([]float32, error) {
	return Decompress(Serial[float32]{}, buf, dst, nil)
}

// CompressSerial64 compresses double-precision data.
func CompressSerial64(src []float64, mode Mode, bound float64) ([]byte, error) {
	return Compress(Serial[float64]{}, src, mode, bound, nil)
}

// CompressSerial64Traced is CompressSerial64 with per-chunk stage spans
// recorded on rec (nil disables tracing at no cost).
func CompressSerial64Traced(src []float64, mode Mode, bound float64, rec *obs.Recorder) ([]byte, error) {
	return Compress(Serial[float64]{}, src, mode, bound, rec)
}

// DecompressSerial64 decodes a double-precision stream.
func DecompressSerial64(buf []byte, dst []float64) ([]float64, error) {
	return Decompress(Serial[float64]{}, buf, dst, nil)
}
