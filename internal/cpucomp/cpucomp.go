// Package cpucomp is the parallel CPU implementation of PFPL, the analog of
// the paper's OpenMP version (§III.E). The input is broken into 16 kB
// chunks that are dynamically assigned to worker goroutines through an
// atomic counter (load balancing: not all chunks compress equally fast),
// and the compressed chunks are concatenated in one pass by relaying the
// cumulative size of all prior chunks along a shared carry array: a worker
// that finishes a chunk before its predecessor parks the payload in the
// chunk's worst-case slot and moves on, and whoever emits the predecessor
// emits it too. No worker ever waits for another chunk.
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

// Exec is the parallel CPU executor for element type T on a Pool. It
// implements core.Executor: one dispatch covers every chunk of every planned
// field, so a single field and a batch of thousands of small fields run the
// same loop. Workers pull global chunk indices from one atomic counter,
// locate the owning field by binary search over the cumulative chunk-start
// table, and hand each finished chunk to the relay, which concatenates each
// field's chunks in chunk order. Chunk placement inside each field is
// therefore the serial encoder's, and the bytes are identical under any
// pool and any participant count.
type Exec[T core.Float] struct{ Pool *Pool }

// Encode compresses every planned field with one dispatch. Each worker
// records its stage spans on its own track (rec nil disables tracing at no
// cost); a chunk's emit span covers placing its payload and any emission it
// relays.
func (e Exec[T]) Encode(plans []core.EncodePlan[T], rec *obs.Recorder) [][]byte {
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	r := newRelay(plans, starts)
	e.Pool.run(starts[len(plans)], rec, func(q *chunkQueue, track int32) {
		k := core.GetKernels[T](rec, track)
		defer k.Release()
		for g, ok := q.take(); ok; g, ok = q.take() {
			f := core.FieldOfChunk(starts, g)
			pl := &plans[f]
			c := g - starts[f]
			//pfpl:ignore intwidth c is a chunk index within one field, below its uint32 chunk table size
			unit := int32(c)
			payload, raw := k.Encode(&pl.Params, pl.Chunk(c), unit)
			t := rec.Now()
			r.finish(f, c, g, payload, raw)
			rec.StageSpan(obs.StageEmit, track, unit, t)
		}
	})
	return r.containers()
}

// Decode decodes every planned field with one dispatch. Chunk starts come
// from the plans' prefix sums over the stored chunk sizes, making every
// chunk independent (§III.E). The first error wins; remaining chunks are
// still visited (they are cheap and the data is discarded on error).
func (e Exec[T]) Decode(plans []core.DecodePlan[T], rec *obs.Recorder) error {
	starts := core.ChunkStarts(len(plans), func(f int) int { return plans[f].Header.NumChunks })
	var firstErr atomic.Value
	e.Pool.run(starts[len(plans)], rec, func(q *chunkQueue, track int32) {
		k := core.GetKernels[T](rec, track)
		defer k.Release()
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
