package pfpl

// The streaming frame pipeline. Frames are independent compression units
// (each a complete PFPL container), so they parallelize exactly like the
// CPU executor's chunks: a bounded pool of workers compresses frames
// concurrently while a chained token (cpucomp.Chain) serializes emission
// into submission order. The emitted byte stream is bit-identical to
// serial emission for every worker count, which internal/conformance pins
// with golden SHA-256 vectors over streamed output.
//
// Error determinism: an error is only recorded at a frame's emission turn,
// and turns are taken strictly in frame order, so the first failing frame
// (compress or write) in *frame order* wins no matter how workers are
// scheduled. Once an error is recorded, later frames drain through the
// chain without compressing or writing, and Close reports the error.

import (
	"context"
	"io"
	"strconv"
	"sync"

	"pfpl/internal/bufpool"
	"pfpl/internal/core"
	"pfpl/internal/cpucomp"
	"pfpl/internal/obs"
)

// streamWorkers resolves a requested concurrency: <= 0 means one worker
// per logical CPU.
func streamWorkers(requested int) int {
	return cpucomp.Workers(requested)
}

// Frame buffers are recycled process-wide, not per stream: a writer's frame
// value buffer goes back to frameValues once the frame is compressed, and a
// reader's value and frame byte buffers once the caller has drained them or
// the stream has ended. The next stream, or the next request of a server
// that opens one stream per request, takes them back instead of allocating.
var (
	frameValues bufpool.Floats
	frameBytes  bufpool.Pool[byte]
)

// valuePool returns the process-wide frame value pool for T.
func valuePool[T core.Float]() *bufpool.Pool[T] { return bufpool.Of[T](&frameValues) }

// frameJob is one frame handed to the worker pool, with its emission-order
// token pair from the chain.
type frameJob[T core.Float] struct {
	vals *[]T  // from valuePool, returned once compressed
	idx  int32 // frame index, the span unit label
	turn <-chan struct{}
	done chan struct{}
}

// framePipe is the bounded, order-preserving compression pipeline behind
// Writer32/64.
type framePipe[T core.Float] struct {
	dst    io.Writer
	enc    func([]T) ([]byte, error)
	ctx    context.Context
	rec    *obs.Recorder
	elem   int64 // bytes per value, for frame byte accounting
	jobs   chan frameJob[T]
	wg     sync.WaitGroup
	chain  *cpucomp.Chain
	frames int32 // next frame index; touched only by submit's caller
	// tally enables per-frame chunk-outcome accounting (compressed vs raw
	// fallback) into the recorder's aggregates. Only set when the caller
	// supplied a Trace: the tally re-parses each frame's chunk table, which
	// the untraced fast path must not pay for.
	tally bool

	// Footer-index state. Emission turns are serialized by the chain, so
	// recs and off are only ever touched while a worker holds its turn
	// (happens-before through the chain's channels); close reads them after
	// every worker has exited.
	index bool
	recs  []core.FrameRecord
	off   int64 // stream bytes emitted so far

	mu  sync.Mutex
	err error
}

func newFramePipe[T core.Float](dst io.Writer, enc func([]T) ([]byte, error), ctx context.Context, rec *obs.Recorder, elem int64, workers int, index, tally bool) *framePipe[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &framePipe[T]{
		dst:   dst,
		enc:   enc,
		ctx:   ctx,
		rec:   rec,
		elem:  elem,
		chain: cpucomp.NewChain(),
		index: index,
		tally: tally,
		// The job queue bounds frames in flight: at most `workers` queued
		// plus `workers` being compressed, so memory stays proportional to
		// the concurrency, not the stream length.
		jobs: make(chan frameJob[T], workers),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// stalled reports the pipeline's terminal condition: a recorded error, or a
// canceled context. Workers use it to stop compressing mid-stream; the
// context error itself is only *recorded* at an emission turn (see worker),
// keeping the reported error deterministic in frame order.
func (p *framePipe[T]) stalled() bool {
	return p.firstErr() != nil || p.ctx.Err() != nil
}

func (p *framePipe[T]) worker(id int) {
	defer p.wg.Done()
	track := p.rec.Track("stream-w" + strconv.Itoa(id))
	for j := range p.jobs {
		vals := *j.vals
		var comp []byte
		var err error
		t := p.rec.Now()
		if !p.stalled() { // after a failure or cancel, drain without compressing
			comp, err = p.enc(vals)
		}
		if err == nil && comp != nil {
			t = p.rec.StageSpanOutcome(obs.StageEncode, track, j.idx, t,
				obs.OutcomeCompressed, int64(len(vals))*p.elem, int64(len(comp))+framePrefix)
			if p.tally {
				if chunks, raw, _, terr := ChunkOutcomes(comp); terr == nil {
					p.rec.ChunksDone(int64(chunks), int64(raw))
				}
			}
		}
		// The index record is assembled before the emission turn so the
		// SHA-256 runs in parallel across workers; only the append happens
		// under the turn.
		var rec core.FrameRecord
		if p.index && err == nil && comp != nil {
			rec, err = frameRecordFor(comp)
		}
		valuePool[T]().Put(j.vals)
		<-j.turn
		t = p.rec.StageSpan(obs.StageCarryWait, track, j.idx, t)
		if p.firstErr() == nil {
			switch {
			case p.ctx.Err() != nil:
				// Cancellation wins over this frame's result: the frame is
				// suppressed whether or not it compressed cleanly, so the
				// stream ends at a frame boundary.
				p.fail(p.ctx.Err())
			case err != nil:
				p.fail(err)
			case comp != nil:
				if werr := writeFrame(p.dst, comp); werr != nil {
					p.fail(werr)
				} else {
					if p.index {
						rec.Offset = p.off
						p.recs = append(p.recs, rec)
					}
					p.off += framePrefix + int64(len(comp))
					p.rec.StageSpan(obs.StageEmit, track, j.idx, t)
				}
			}
		}
		close(j.done)
	}
}

// frameRecordFor builds a frame's footer-index entry from its compressed
// bytes: the container header supplies the chunk and value counts, and the
// digest content-addresses the frame for caches and integrity checks.
func frameRecordFor(comp []byte) (core.FrameRecord, error) {
	h, err := core.ParseHeader(comp)
	if err != nil {
		return core.FrameRecord{}, err
	}
	return core.FrameRecord{
		Length: int64(len(comp)),
		Chunks: h.NumChunks,
		Values: int64(h.Len()),
		Digest: core.FrameDigest(comp),
	}, nil
}

// writeIndex emits the footer index block and fixed trailer after the last
// frame. Only called once the workers have drained, so recs and off are
// settled.
func (p *framePipe[T]) writeIndex() error {
	block := core.AppendIndex(nil, p.recs)
	trailer := core.AppendIndexTrailer(nil, p.off, block)
	if _, err := p.dst.Write(block); err != nil {
		return err
	}
	_, err := p.dst.Write(trailer)
	return err
}

// submit hands one complete frame to the pool, blocking while the pipeline
// is full. Must be called from the single writer goroutine: submission
// order defines emission order via the chain.
func (p *framePipe[T]) submit(vals *[]T) {
	turn, done := p.chain.Link()
	p.jobs <- frameJob[T]{vals: vals, idx: p.frames, turn: turn, done: done}
	p.frames++
}

// close stops the workers and returns the pipeline's first error.
func (p *framePipe[T]) close() error {
	close(p.jobs)
	p.wg.Wait()
	return p.firstErr()
}

func (p *framePipe[T]) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *framePipe[T]) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// streamWriter is the shared implementation of Writer32/64: it slices the
// caller's values into frames of exactly `limit` values (identical
// partitioning to the serial writer, so the frame contents never depend on
// write-call boundaries) and feeds them to the pipe.
type streamWriter[T core.Float] struct {
	pipe   *framePipe[T]
	buf    *[]T // frame being filled; nil until the next value arrives
	limit  int
	closed bool
}

func (w *streamWriter[T]) init(dst io.Writer, enc func([]T) ([]byte, error), ctx context.Context, rec *obs.Recorder, elem int64, limit, workers int, index, tally bool) {
	w.limit = limit
	w.pipe = newFramePipe(dst, enc, ctx, rec, elem, workers, index, tally)
}

func (w *streamWriter[T]) write(vals []T) error {
	if w.closed {
		return ErrClosed
	}
	if err := w.pipe.firstErr(); err != nil {
		return err
	}
	// A canceled pipeline context surfaces on the next write even when no
	// frame is in flight to observe it.
	if err := w.pipe.ctx.Err(); err != nil {
		w.pipe.fail(err)
		return w.pipe.firstErr()
	}
	for len(vals) > 0 {
		if w.buf == nil {
			w.buf = valuePool[T]().Get(w.limit)
		}
		take := min(w.limit-len(*w.buf), len(vals))
		*w.buf = append(*w.buf, vals[:take]...)
		vals = vals[take:]
		if len(*w.buf) == w.limit {
			w.pipe.submit(w.buf)
			w.buf = nil
			if err := w.pipe.firstErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *streamWriter[T]) close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	if w.buf != nil {
		w.pipe.submit(w.buf)
	}
	w.buf = nil
	err := w.pipe.close()
	if err == nil {
		// A cancel that landed after the last frame emitted still makes the
		// stream suspect: report it so the caller never mistakes a canceled
		// stream for a complete one.
		err = w.pipe.ctx.Err()
	}
	if err == nil && w.pipe.index {
		// The footer is only worth writing on a clean stream: a failed or
		// canceled pipeline leaves a plain truncated frame sequence, which
		// sequential readers already recover from frame by frame.
		err = w.pipe.writeIndex()
	}
	return err
}

// fetched is one decoded frame (or terminal error) delivered by the
// read-ahead goroutine. It carries the goroutine's two pooled buffers back
// in either case.
type fetched[T core.Float] struct {
	vals *[]T    // decoded values, from valuePool
	buf  *[]byte // frame byte buffer, from frameBytes
	n    int64   // stream bytes consumed (prefix + body)
	err  error
}

// streamReader is the shared implementation of Reader32/64. It keeps
// exactly one frame in flight: after frame N is received, a goroutine is
// launched that reads and decompresses frame N+1 while the caller drains
// N. The goroutine writes its single result into a buffered channel and
// exits, so an abandoned reader leaks nothing beyond one parked result.
//
// Its buffers come from the process-wide pools: a value buffer goes back
// once the caller has drained it, and the frame byte buffer once the
// stream ends, when no read-ahead is left to hold it.
type streamReader[T core.Float] struct {
	src io.Reader
	dec func(frame []byte, dst []T) ([]T, error)

	next  chan fetched[T]
	frame int     // index of the next frame to be received
	off   int64   // byte offset of the next frame to be received
	buf   *[]byte // frame byte buffer, handed to each read-ahead in turn

	pending []T  // unread tail of the current frame
	retired *[]T // current frame's buffer, returned to the pool when drained
	err     error
}

func (r *streamReader[T]) init(src io.Reader, dec func([]byte, []T) ([]T, error)) {
	r.src = src
	r.dec = dec
}

// launch starts the read-ahead for the next frame. The goroutine owns r.buf
// and a pooled value buffer until its result is received. The value buffer
// is taken whatever its size: Decompress decodes into it only when its
// capacity covers the frame, and otherwise allocates one that does.
func (r *streamReader[T]) launch() {
	buf := r.buf
	r.buf = nil
	vals := valuePool[T]().Get(0)
	idx, off := r.frame, r.off
	go func() {
		res := fetched[T]{vals: vals, buf: buf}
		frame, err := readFrame(r.src, *buf, idx, off)
		if err != nil {
			res.err = err
			r.next <- res
			return
		}
		*buf = frame
		out, err := r.dec(frame, *vals)
		if err != nil {
			res.err = frameErr(idx, off, err)
			r.next <- res
			return
		}
		*vals = out
		res.n = framePrefix + int64(len(frame))
		r.next <- res
	}()
}

// fetch returns the next decoded frame, launching the following frame's
// read-ahead before returning so decompression overlaps the caller's
// drain. At the end of the stream, or on an error, nothing is in flight, so
// the buffers go back to the pools.
func (r *streamReader[T]) fetch() fetched[T] {
	if r.next == nil { // first use: prime the pipeline
		r.next = make(chan fetched[T], 1)
		r.buf = frameBytes.Get(0)
		r.launch()
	}
	f := <-r.next
	if f.err != nil {
		frameBytes.Put(f.buf)
		valuePool[T]().Put(f.vals)
		return f
	}
	r.frame++
	r.off += f.n
	r.buf = f.buf
	r.launch()
	return f
}

func (r *streamReader[T]) read(dst []T) (int, error) {
	if len(dst) == 0 {
		// Surface the sticky state instead of hiding it behind (0, nil):
		// a zero-length read on an exhausted or corrupt stream reports the
		// same error a non-empty read would.
		return 0, r.err
	}
	if r.err != nil {
		return 0, r.err
	}
	total := 0
	for total < len(dst) {
		if len(r.pending) == 0 {
			f := r.fetch()
			if f.err != nil {
				r.err = f.err
				if total > 0 && f.err == io.EOF {
					return total, nil
				}
				return total, f.err
			}
			if len(*f.vals) == 0 { // empty frame: recycle and keep going
				valuePool[T]().Put(f.vals)
				continue
			}
			r.pending, r.retired = *f.vals, f.vals
		}
		n := copy(dst[total:], r.pending)
		r.pending = r.pending[n:]
		total += n
		if len(r.pending) == 0 {
			valuePool[T]().Put(r.retired)
			r.pending, r.retired = nil, nil
		}
	}
	return total, nil
}
