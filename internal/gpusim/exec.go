package gpusim

import (
	"strconv"
	"sync/atomic"

	"pfpl/internal/core"
	"pfpl/internal/obs"
)

// Persistent-grid execution. The real LCLS deployment amortizes launch
// overhead for thousands of small fields by capturing the per-field kernel
// sequence in a CUDA graph and replaying it; the analog here is ONE resident
// grid whose blocks consume a queue spanning every field's chunks, so the
// simulator pays a single launch (one worker spawn + one barrier) per call.
// A single field is a one-field batch on the same grid. A block maps its
// global index to the owning field by binary search over the cumulative
// chunk-start table, encodes through that field's own decoupled look-back
// chain, and writes into that field's private payload region — chunk
// placement inside each field is exactly the serial encoder's, so the
// containers match the CPU executors byte for byte.

// Exec runs plans of element type T on a simulated device. It implements
// core.Executor[T]. Each simulated SM records its kernel-phase spans on its
// own track; the persistent-grid shape means an SM's lane interleaves
// blocks of many fields, as the real device's would.
type Exec[T core.Float] struct{ Model DeviceModel }

// chunkKernel is one simulated SM's chunk codec for T.
type chunkKernel[T core.Float] interface {
	encode(b *Block, p *core.Params, src []T, unit int32) (payload []byte, raw bool)
	decode(b *Block, p *core.Params, payload []byte, raw bool, dst []T, unit int32) error
}

// kernel builds the shared memory of SM sm with T paired once with the
// word of its width, and returns it with the SM's trace track.
func (e Exec[T]) kernel(rec *obs.Recorder, sm int) (chunkKernel[T], int32) {
	threads := min(threadsPerBlock, e.Model.MaxThreadsPerBlock)
	track := smTrack(rec, sm)
	var k any
	if core.IsPrec64[T]() {
		k = newShared[float64, uint64](threads, rec, track)
	} else {
		k = newShared[float32, uint32](threads, rec, track)
	}
	return k.(chunkKernel[T]), track
}

// smTrack registers the per-SM lane for worker sm on rec (track 0 when
// tracing is disabled).
func smTrack(rec *obs.Recorder, sm int) int32 {
	if rec == nil {
		return 0
	}
	return rec.Track("sm-" + strconv.Itoa(sm))
}

// Encode compresses every planned field in one grid launch.
func (e Exec[T]) Encode(plans []core.EncodePlan[T], rec *obs.Recorder) [][]byte {
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	outs, chains := emitBuffers(plans)
	e.Model.Grid(starts[len(plans)], threadsPerBlock, func(sm int) func(*Block) {
		k, track := e.kernel(rec, sm)
		return func(b *Block) {
			f := core.FieldOfChunk(starts, b.Idx)
			pl := &plans[f]
			c := b.Idx - starts[f]
			//pfpl:ignore intwidth c is a chunk index within one field, below its uint32 chunk table size
			unit := int32(c)
			payload, raw := k.encode(b, &pl.Params, pl.Chunk(c), unit)
			core.PutChunkSize(outs[f], c, len(payload), raw)
			t := rec.Now()
			prefix := chains[f].ExclusivePrefix(c, int64(len(payload)))
			t = rec.StageSpan(obs.StageCarryWait, track, unit, t)
			//pfpl:ignore intwidth prefix is a byte offset into the output, bounded by MaxLen
			copy(outs[f][len(pl.Head)+int(prefix):], payload)
			rec.StageSpan(obs.StageEmit, track, unit, t)
		}
	})
	for f := range plans {
		//pfpl:ignore intwidth Total is the summed payload length, bounded by MaxLen
		outs[f] = outs[f][:len(plans[f].Head)+int(chains[f].Total())]
	}
	return outs
}

// Decode decodes every planned field in one grid launch.
func (e Exec[T]) Decode(plans []core.DecodePlan[T], rec *obs.Recorder) error {
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	var firstErr atomic.Value
	e.Model.Grid(starts[len(plans)], threadsPerBlock, func(sm int) func(*Block) {
		k, _ := e.kernel(rec, sm)
		return func(b *Block) {
			f := core.FieldOfChunk(starts, b.Idx)
			pl := &plans[f]
			c := b.Idx - starts[f]
			payload, raw := pl.ChunkPayload(c)
			//pfpl:ignore intwidth c is a chunk index below NumChunks < 2^31 (uint32 table)
			if err := k.decode(b, &pl.Params, payload, raw, pl.ChunkDst(c), int32(c)); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}
	})
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// emitBuffers allocates each field's output and its look-back chain.
func emitBuffers[T core.Float](plans []core.EncodePlan[T]) ([][]byte, []*Lookback) {
	outs := make([][]byte, len(plans))
	chains := make([]*Lookback, len(plans))
	for f := range plans {
		outs[f] = plans[f].Buffer()
		chains[f] = NewLookback(plans[f].Header.NumChunks)
	}
	return outs, chains
}

// outcome labels a decoded chunk's span.
func outcome(raw bool) obs.Outcome {
	if raw {
		return obs.OutcomeRaw
	}
	return obs.OutcomeCompressed
}
