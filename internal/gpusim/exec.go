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
//
// The orchestration is written once per precision because the kernels work
// on per-precision shared-memory types.

// Exec32 runs single-precision plans on a simulated device. It implements
// core.Executor[float32]. Each simulated SM records its kernel-phase spans
// on its own track; the persistent-grid shape means an SM's lane
// interleaves blocks of many fields, as the real device's would.
type Exec32 struct{ Model DeviceModel }

// Exec64 is the double-precision counterpart of Exec32.
type Exec64 struct{ Model DeviceModel }

// smTrack registers the per-SM lane for worker sm on rec (track 0 when
// tracing is disabled).
func smTrack(rec *obs.Recorder, sm int) int32 {
	if rec == nil {
		return 0
	}
	return rec.Track("sm-" + strconv.Itoa(sm))
}

// Encode compresses every planned field in one grid launch.
func (e Exec32) Encode(plans []core.EncodePlan[float32], rec *obs.Recorder) [][]byte {
	m := e.Model
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	outs, chains := emitBuffers(plans)
	m.Grid(starts[len(plans)], threadsPerBlock, func(sm int) func(*Block) {
		s := newShared32(min(threadsPerBlock, m.MaxThreadsPerBlock))
		s.rec = rec
		s.track = smTrack(rec, sm)
		return func(b *Block) {
			f := core.FieldOfChunk(starts, b.Idx)
			pl := &plans[f]
			c := b.Idx - starts[f]
			//pfpl:ignore intwidth c is a chunk index within one field, below its uint32 chunk table size
			s.unit = int32(c)
			size, raw := encodeChunk32(b, &pl.Params, pl.Chunk(c), s)
			core.PutChunkSize(outs[f], c, size, raw)
			t := rec.Now()
			prefix := chains[f].ExclusivePrefix(c, int64(size))
			t = rec.StageSpan(obs.StageCarryWait, s.track, s.unit, t)
			//pfpl:ignore intwidth prefix is a byte offset into the output, bounded by MaxLen
			copy(outs[f][len(pl.Head)+int(prefix):], s.out[:size])
			rec.StageSpan(obs.StageEmit, s.track, s.unit, t)
		}
	})
	for f := range plans {
		//pfpl:ignore intwidth Total is the summed payload length, bounded by MaxLen
		outs[f] = outs[f][:len(plans[f].Head)+int(chains[f].Total())]
	}
	return outs
}

// Decode decodes every planned field in one grid launch.
func (e Exec32) Decode(plans []core.DecodePlan[float32], rec *obs.Recorder) error {
	m := e.Model
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	var firstErr atomic.Value
	m.Grid(starts[len(plans)], threadsPerBlock, func(sm int) func(*Block) {
		s := newShared32(min(threadsPerBlock, m.MaxThreadsPerBlock))
		track := smTrack(rec, sm)
		return func(b *Block) {
			f := core.FieldOfChunk(starts, b.Idx)
			pl := &plans[f]
			c := b.Idx - starts[f]
			payload, raw := pl.ChunkPayload(c)
			dst := pl.ChunkDst(c)
			t := rec.Now()
			if err := decodeChunk32(b, &pl.Params, payload, raw, dst, s); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			//pfpl:ignore intwidth c is a chunk index below NumChunks < 2^31 (uint32 table)
			rec.StageSpanOutcome(obs.StageDecode, track, int32(c), t, outcome(raw), int64(len(payload)), int64(len(dst))*4)
		}
	})
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// Encode compresses every planned field in one grid launch.
func (e Exec64) Encode(plans []core.EncodePlan[float64], rec *obs.Recorder) [][]byte {
	m := e.Model
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	outs, chains := emitBuffers(plans)
	m.Grid(starts[len(plans)], threadsPerBlock, func(sm int) func(*Block) {
		s := newShared64(min(threadsPerBlock, m.MaxThreadsPerBlock))
		s.rec = rec
		s.track = smTrack(rec, sm)
		return func(b *Block) {
			f := core.FieldOfChunk(starts, b.Idx)
			pl := &plans[f]
			c := b.Idx - starts[f]
			//pfpl:ignore intwidth c is a chunk index within one field, below its uint32 chunk table size
			s.unit = int32(c)
			size, raw := encodeChunk64(b, &pl.Params, pl.Chunk(c), s)
			core.PutChunkSize(outs[f], c, size, raw)
			t := rec.Now()
			prefix := chains[f].ExclusivePrefix(c, int64(size))
			t = rec.StageSpan(obs.StageCarryWait, s.track, s.unit, t)
			//pfpl:ignore intwidth prefix is a byte offset into the output, bounded by MaxLen
			copy(outs[f][len(pl.Head)+int(prefix):], s.out[:size])
			rec.StageSpan(obs.StageEmit, s.track, s.unit, t)
		}
	})
	for f := range plans {
		//pfpl:ignore intwidth Total is the summed payload length, bounded by MaxLen
		outs[f] = outs[f][:len(plans[f].Head)+int(chains[f].Total())]
	}
	return outs
}

// Decode decodes every planned field in one grid launch.
func (e Exec64) Decode(plans []core.DecodePlan[float64], rec *obs.Recorder) error {
	m := e.Model
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	var firstErr atomic.Value
	m.Grid(starts[len(plans)], threadsPerBlock, func(sm int) func(*Block) {
		s := newShared64(min(threadsPerBlock, m.MaxThreadsPerBlock))
		track := smTrack(rec, sm)
		return func(b *Block) {
			f := core.FieldOfChunk(starts, b.Idx)
			pl := &plans[f]
			c := b.Idx - starts[f]
			payload, raw := pl.ChunkPayload(c)
			dst := pl.ChunkDst(c)
			t := rec.Now()
			if err := decodeChunk64(b, &pl.Params, payload, raw, dst, s); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			//pfpl:ignore intwidth c is a chunk index below NumChunks < 2^31 (uint32 table)
			rec.StageSpanOutcome(obs.StageDecode, track, int32(c), t, outcome(raw), int64(len(payload)), int64(len(dst))*8)
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
