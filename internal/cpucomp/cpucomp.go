// Package cpucomp is the parallel CPU implementation of PFPL, the analog of
// the paper's OpenMP version (§III.E). The input is broken into 16 kB
// chunks that are dynamically assigned to worker goroutines through an
// atomic counter (load balancing: not all chunks compress equally fast),
// and the compressed chunks are concatenated by propagating the cumulative
// size of all prior chunks through a shared carry array accessed with
// atomic reads and writes.
//
// The compressed stream is bit-for-bit identical to the serial encoder's:
// parallelism affects only who computes each chunk, never its content or
// placement.
package cpucomp

import (
	"runtime"
	"strconv"
	"sync/atomic"

	"pfpl/internal/core"
	"pfpl/internal/obs"
)

// Workers returns the effective worker count for a requested value: 0 means
// one worker per logical CPU.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Carry is the shared carry array: Carry[c] holds the absolute output offset
// where chunk c's payload starts, or 0 while unknown. Offset 0 is never a
// valid payload position because the header and chunk table precede it;
// NewCarry enforces that.
//
// Carry is the fine-grained (spin-waiting) half of the ordered-concatenation
// decomposition this package is built on; Chain is the coarse-grained
// (blocking) half used by the streaming frame pipeline. Both preserve the
// invariant that concurrently produced units are emitted strictly in index
// order, so the output bytes never depend on scheduling.
type Carry struct {
	off []int64
}

// NewCarry creates a carry array for numChunks chunks whose first payload
// byte is at payloadStart. It panics unless payloadStart > 0, because 0 is
// the carry's "not yet published" sentinel.
func NewCarry(numChunks int, payloadStart int) *Carry {
	if payloadStart <= 0 {
		panic("cpucomp: carry payload start must be positive (0 marks an unpublished offset)")
	}
	ca := &Carry{off: make([]int64, numChunks+1)}
	atomic.StoreInt64(&ca.off[0], int64(payloadStart))
	return ca
}

// Wait spins until chunk c's start offset has been published. Spinning (with
// Gosched) is right at chunk granularity: a 16 kB chunk encodes in
// microseconds, so parking the goroutine would cost more than the wait.
func (ca *Carry) Wait(c int) int64 {
	for {
		v := atomic.LoadInt64(&ca.off[c])
		if v != 0 {
			return v
		}
		runtime.Gosched()
	}
}

// Publish records that chunk c ends (and chunk c+1 begins) at offset end.
func (ca *Carry) Publish(c int, end int64) {
	atomic.StoreInt64(&ca.off[c+1], end)
}

// Exec is the parallel CPU executor for element type T on a Pool. It
// implements core.Executor: one dispatch covers every chunk of every planned
// field, so a single field and a batch of thousands of small fields run the
// same loop. Workers pull global chunk indices from one atomic counter,
// locate the owning field by binary search over the cumulative chunk-start
// table, and emit through that field's own carry chain. Chunk placement
// inside each field is therefore the serial encoder's, and the bytes are
// identical under any pool and any participant count.
type Exec[T core.Float] struct{ Pool *Pool }

// Encode compresses every planned field with one dispatch. Each worker
// records its stage spans on its own track (rec nil disables tracing at no
// cost).
func (e Exec[T]) Encode(plans []core.EncodePlan[T], rec *obs.Recorder) [][]byte {
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	outs := make([][]byte, len(plans))
	carries := make([]*Carry, len(plans))
	for f := range plans {
		outs[f] = plans[f].Buffer()
		carries[f] = NewCarry(plans[f].Header.NumChunks, len(plans[f].Head))
	}
	e.Pool.run(starts[len(plans)], rec, func(q *chunkQueue, track int32) {
		k := core.NewKernels[T](rec, track)
		for g, ok := q.take(); ok; g, ok = q.take() {
			f := core.FieldOfChunk(starts, g)
			pl := &plans[f]
			c := g - starts[f]
			//pfpl:ignore intwidth c is a chunk index within one field, below its uint32 chunk table size
			unit := int32(c)
			payload, raw := k.Encode(&pl.Params, pl.Chunk(c), unit)
			core.PutChunkSize(outs[f], c, len(payload), raw)
			t := rec.Now()
			start := carries[f].Wait(c)
			t = rec.StageSpan(obs.StageCarryWait, track, unit, t)
			copy(outs[f][start:], payload)
			carries[f].Publish(c, start+int64(len(payload)))
			rec.StageSpan(obs.StageEmit, track, unit, t)
		}
	})
	for f := range plans {
		//pfpl:ignore intwidth Wait returns a byte offset into the output, bounded by MaxLen
		outs[f] = outs[f][:carries[f].Wait(plans[f].Header.NumChunks)]
	}
	return outs
}

// Decode decodes every planned field with one dispatch. Chunk starts come
// from the plans' prefix sums over the stored chunk sizes, making every
// chunk independent (§III.E). The first error wins; remaining chunks are
// still visited (they are cheap and the data is discarded on error).
func (e Exec[T]) Decode(plans []core.DecodePlan[T], rec *obs.Recorder) error {
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	var firstErr atomic.Value
	e.Pool.run(starts[len(plans)], rec, func(q *chunkQueue, track int32) {
		k := core.NewKernels[T](rec, track)
		for g, ok := q.take(); ok; g, ok = q.take() {
			f := core.FieldOfChunk(starts, g)
			pl := &plans[f]
			c := g - starts[f]
			payload, raw := pl.ChunkPayload(c)
			//pfpl:ignore intwidth c is a chunk index within one field, below its uint32 chunk table size
			if err := k.Decode(&pl.Params, payload, raw, pl.ChunkDst(c), int32(c)); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}
	})
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// chunkQueue hands out global chunk indices in increasing order.
type chunkQueue struct {
	next  atomic.Int64
	total int64
}

func (q *chunkQueue) take() (int, bool) {
	g := q.next.Add(1) - 1
	return int(g), g < q.total
}

// run dispatches total chunks over p's participants, never more participants
// than chunks. Each participant gets its own recorder track ("cpu-w0",
// "cpu-w1", ...; track 0 without a recorder) and pulls chunk indices from
// one shared queue.
func (p *Pool) run(total int, rec *obs.Recorder, body func(q *chunkQueue, track int32)) {
	if total == 0 {
		return
	}
	q := &chunkQueue{total: int64(total)}
	var seq atomic.Int64
	p.dispatch(min(p.Size(), total), func() {
		var track int32
		if rec != nil {
			track = rec.Track("cpu-w" + strconv.FormatInt(seq.Add(1)-1, 10))
		}
		body(q, track)
	})
}

// The entry points below keep the per-precision signatures existing callers
// use; each is one call into the generic core.

// Compress32 compresses src in parallel with the given worker count
// (0 = GOMAXPROCS).
func Compress32(src []float32, mode core.Mode, bound float64, workers int) ([]byte, error) {
	return core.Compress(Exec[float32]{SpawnPool(workers)}, src, mode, bound, nil)
}

// Compress64 is the double-precision counterpart of Compress32.
func Compress64(src []float64, mode core.Mode, bound float64, workers int) ([]byte, error) {
	return core.Compress(Exec[float64]{SpawnPool(workers)}, src, mode, bound, nil)
}

// Decompress32 decodes buf in parallel into dst (reused when its capacity
// suffices).
func Decompress32(buf []byte, dst []float32, workers int) ([]float32, error) {
	return core.Decompress(Exec[float32]{SpawnPool(workers)}, buf, dst, nil)
}

// Decompress64 decodes a double-precision stream in parallel.
func Decompress64(buf []byte, dst []float64, workers int) ([]float64, error) {
	return core.Decompress(Exec[float64]{SpawnPool(workers)}, buf, dst, nil)
}

// CompressBatch32 compresses all fields into one batch container with a
// single dispatch (0 workers = GOMAXPROCS).
func CompressBatch32(fields [][]float32, mode core.Mode, bound float64, workers int) ([]byte, error) {
	return core.CompressBatch(Exec[float32]{SpawnPool(workers)}, fields, mode, bound, nil)
}

// CompressBatch64 is the double-precision counterpart of CompressBatch32.
func CompressBatch64(fields [][]float64, mode core.Mode, bound float64, workers int) ([]byte, error) {
	return core.CompressBatch(Exec[float64]{SpawnPool(workers)}, fields, mode, bound, nil)
}

// DecompressBatch32 decodes a batch container into per-field slices with a
// single dispatch over all fields' chunks (0 workers = GOMAXPROCS).
func DecompressBatch32(buf []byte, workers int) ([][]float32, error) {
	return core.DecompressBatch(Exec[float32]{SpawnPool(workers)}, buf, nil)
}

// DecompressBatch64 is the double-precision counterpart of DecompressBatch32.
func DecompressBatch64(buf []byte, workers int) ([][]float64, error) {
	return core.DecompressBatch(Exec[float64]{SpawnPool(workers)}, buf, nil)
}
