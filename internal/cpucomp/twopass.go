package cpucomp

import (
	"pfpl/internal/core"
)

// Compress32TwoPass is the baseline parallelization PFPL's carry-chain
// design replaces (§III.E): every chunk is compressed into its own buffer,
// and a second pass concatenates them once all sizes are known. It produces
// the identical stream but copies every compressed byte out of a private
// buffer and holds all chunk buffers live at once; the ablation benchmark
// quantifies what the single-pass relay saves. (The relay copies a chunk
// twice only when it finishes before its predecessor is emitted, and then
// within the one output buffer.)
func Compress32TwoPass(src []float32, mode core.Mode, bound float64, workers int) ([]byte, error) {
	pl, err := core.PlanEncode(src, mode, bound)
	if err != nil {
		return nil, err
	}

	// Pass 1: compress every chunk into a private buffer.
	type chunkOut struct {
		payload []byte
		raw     bool
	}
	outs := make([]chunkOut, pl.Header.NumChunks)
	SpawnPool(workers).run(len(outs), nil, func(q *chunkQueue, _ int32) {
		k := core.GetKernels[float32](nil, 0)
		defer k.Release()
		for c, ok := q.take(); ok; c, ok = q.take() {
			payload, raw := k.Encode(&pl.Params, pl.Chunk(c), 0)
			outs[c] = chunkOut{payload: append([]byte(nil), payload...), raw: raw}
		}
	})

	// Pass 2: size table and concatenation.
	out := pl.Head
	for c, o := range outs {
		core.PutChunkSize(out, c, len(o.payload), o.raw)
	}
	for _, o := range outs {
		out = append(out, o.payload...)
	}
	return out, nil
}
