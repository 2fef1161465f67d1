package pfpl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pfpl/internal/core"
)

// Streaming layer: data is compressed incrementally into a sequence of
// independent frames, each a complete PFPL container prefixed with its byte
// length. Frames decompress independently, so a stream can be consumed as
// it arrives — the scenario of an instrument producing data faster than it
// can be stored (paper §I).
//
// Frames are also the streaming unit of parallelism: Writer32/64 hand full
// frames to a bounded worker pool and emit the compressed frames strictly
// in order through a chained token (internal/cpucomp.Chain), the same
// ordered-concatenation decomposition the parallel CPU executor uses for
// chunks. The byte stream is therefore bit-identical regardless of the
// worker count, including the serial case. Reader32/64 mirror this with a
// single-frame read-ahead: frame N+1 is fetched and decompressed while the
// caller drains frame N.
//
// For NOA streams the value range is computed per frame (a whole-stream
// range would require two passes); the recorded per-frame range makes each
// frame's guarantee self-contained.

// DefaultFrameValues is the default number of values buffered per frame:
// large enough to amortize headers, small enough for low latency.
const DefaultFrameValues = 1 << 20

// ErrClosed reports use of a closed streaming writer.
var ErrClosed = errors.New("pfpl: writer is closed")

// frame length prefix size.
const framePrefix = 4

// maxFrameBytes bounds a frame declared by a corrupted stream. It is typed
// int64 so the bound (2^31) is expressible on 32-bit targets, where int
// cannot hold it; readFrame additionally caps frames at the platform's int
// range so a declared length always fits a slice length.
const maxFrameBytes int64 = 1 << 31

// maxWriteFrameBytes caps the frames the writer will emit: strictly below
// maxFrameBytes, because readFrame also rejects lengths above the
// platform's int range and on 32-bit targets that is 2^31-1 — one byte less
// than the corruption bound. Capping the writer at the portable limit means
// every frame this library writes is readable on every target it compiles
// for; the asymmetric cap previously let a 64-bit writer emit a frame of
// exactly 2^31 bytes that a 32-bit reader rejected as corrupt.
const maxWriteFrameBytes = maxFrameBytes - 1

// frameLenWritable reports whether the writer may emit a frame of n bytes.
func frameLenWritable(n int64) bool { return n > 0 && n <= maxWriteFrameBytes }

// frameLenReadable reports whether readFrame accepts a declared frame
// length of n bytes on this platform. Every writable length must be
// readable here even when int is 32 bits wide; TestFrameLenCapSymmetry pins
// that relation without allocating a 2 GB frame.
func frameLenReadable(n int64) bool {
	return n > 0 && n <= maxFrameBytes && n <= math.MaxInt
}

// maxFrameValues caps StreamOptions.FrameValues so a worst-case frame
// (every chunk stored raw, double precision, plus container overhead)
// stays below maxFrameBytes on every platform.
const maxFrameValues = 1 << 27

// StreamOptions configures the streaming frame pipeline shared by the
// writers and, for the read-ahead decoder, the readers. The zero value is
// ready to use: one compression worker per logical CPU and
// DefaultFrameValues values per frame.
type StreamOptions struct {
	// Concurrency is the number of frames compressed concurrently;
	// <= 0 selects one worker per logical CPU. The output bytes are
	// identical for every setting — concurrency changes only who
	// compresses each frame, never its content or position.
	Concurrency int
	// FrameValues is the number of values buffered per frame; <= 0 selects
	// DefaultFrameValues. Values above the portable frame-size cap (2^27)
	// are clamped so a frame's byte length always fits the 32-bit frame
	// prefix, even in the worst raw-storage case.
	FrameValues int
	// Context, when non-nil, scopes the pipeline: once it is canceled (or
	// its deadline passes) in-flight frames stop compressing, Write and
	// Close report the context's error, and the output must be treated as
	// truncated. Frames fully emitted before cancellation remain valid —
	// frames are independent — so a reader of the partial stream recovers
	// every completed frame. A nil Context never cancels. This is how a
	// server enforces per-request deadlines on streaming requests (see
	// internal/server).
	Context context.Context
	// Index appends a footer index after the last frame on Close: one
	// record per frame (stream offset, length, chunk and value counts, and
	// a SHA-256 content digest) plus a fixed-size trailer locating the
	// table. An indexed stream is still a valid framed stream — sequential
	// readers recognize the footer and stop cleanly — and additionally
	// supports random access through OpenIndexed, which seeks straight to
	// the frames covering a value range instead of scanning from the front.
	// Off by default: index-less (v1) streams are byte-identical to
	// previous releases.
	Index bool
	// Trace, when non-nil, receives frame-level stage spans from the
	// pipeline workers: encode (with frame byte sizes), carry-wait (the
	// in-order emission turn), and emit. It supersedes Options.Trace for
	// the per-frame compression calls — frames are the streaming unit, and
	// recording both frame and chunk spans would double the byte
	// accounting. A traced writer additionally tallies per-chunk encode
	// outcomes (compressed vs raw fallback) into Stats.Chunks/RawChunks.
	// Nil keeps aggregate statistics only, readable via the writer's Stats
	// method.
	Trace *Tracer
}

func (o StreamOptions) frameValues() int {
	fv := o.FrameValues
	if fv <= 0 {
		fv = DefaultFrameValues
	}
	if fv > maxFrameValues {
		fv = maxFrameValues
	}
	return fv
}

func validateStreamOpts(opts *Options) error {
	if !(opts.Bound > 0) {
		return ErrBadBound
	}
	if opts.Mode > NOA {
		return fmt.Errorf("pfpl: unknown mode %v", opts.Mode)
	}
	return nil
}

// frameCompressOptions picks the per-frame executor. An explicit Device is
// respected. With the default (nil) device, a multi-worker pipeline
// compresses each frame with the serial executor — the pipeline itself
// supplies the parallelism, and nesting the parallel CPU device inside
// every worker would only oversubscribe the scheduler — while a
// single-worker pipeline keeps the parallel CPU device so one stream still
// uses the whole machine. Either choice yields identical bytes (the
// library's cross-executor bit-identity, enforced by internal/conformance).
func frameCompressOptions(opts Options, workers int) Options {
	if opts.Device == nil && workers > 1 {
		opts.Device = Serial()
	}
	return opts
}

// Writer32 incrementally compresses single-precision values to an
// io.Writer through the frame pipeline. Methods must not be called
// concurrently; the pipeline's concurrency is internal.
type Writer32 struct {
	s streamWriter[float32]
}

// NewWriter32 creates a streaming compressor. The zero StreamOptions
// selects one worker per logical CPU and DefaultFrameValues per frame.
func NewWriter32(w io.Writer, opts Options, sopts StreamOptions) (*Writer32, error) {
	if err := validateStreamOpts(&opts); err != nil {
		return nil, err
	}
	workers := streamWorkers(sopts.Concurrency)
	copts := frameCompressOptions(opts, workers)
	copts.Trace = nil // frame spans come from the pipeline, not per-chunk
	enc := func(vals []float32) ([]byte, error) { return Compress32(vals, copts) }
	sw := &Writer32{}
	sw.s.init(w, enc, sopts.Context, streamTracer(sopts.Trace), 4, sopts.frameValues(), workers, sopts.Index, sopts.Trace != nil)
	return sw, nil
}

// streamTracer resolves a stream's recorder: the caller's Tracer when set,
// otherwise a stats-only recorder so the writer's Stats method always has
// aggregates to report.
func streamTracer(t *Tracer) *Tracer {
	if t != nil {
		return t
	}
	return NewTracer(0)
}

// Stats returns the aggregate frame statistics recorded so far: frames
// emitted, bytes in and out, and per-stage pipeline time. It is safe to
// call at any point, including after Close.
func (w *Writer32) Stats() CompressStats { return w.s.pipe.rec.Stats() }

// Write buffers vals, handing complete frames to the pipeline. A sticky
// pipeline error (the first frame's compression or write error, in frame
// order) is returned as soon as it is known.
func (w *Writer32) Write(vals []float32) error { return w.s.write(vals) }

// Close flushes the final partial frame, waits for all in-flight frames to
// drain, and returns the pipeline's first error exactly once; subsequent
// calls return ErrClosed. It does not close the underlying writer.
func (w *Writer32) Close() error { return w.s.close() }

// Writer64 is the double-precision streaming compressor.
type Writer64 struct {
	s streamWriter[float64]
}

// NewWriter64 creates a double-precision streaming compressor.
func NewWriter64(w io.Writer, opts Options, sopts StreamOptions) (*Writer64, error) {
	if err := validateStreamOpts(&opts); err != nil {
		return nil, err
	}
	workers := streamWorkers(sopts.Concurrency)
	copts := frameCompressOptions(opts, workers)
	copts.Trace = nil // frame spans come from the pipeline, not per-chunk
	enc := func(vals []float64) ([]byte, error) { return Compress64(vals, copts) }
	sw := &Writer64{}
	sw.s.init(w, enc, sopts.Context, streamTracer(sopts.Trace), 8, sopts.frameValues(), workers, sopts.Index, sopts.Trace != nil)
	return sw, nil
}

// Stats returns the aggregate frame statistics recorded so far (see
// Writer32.Stats).
func (w *Writer64) Stats() CompressStats { return w.s.pipe.rec.Stats() }

// Write buffers vals, handing complete frames to the pipeline.
func (w *Writer64) Write(vals []float64) error { return w.s.write(vals) }

// Close flushes the final partial frame and drains the pipeline.
func (w *Writer64) Close() error { return w.s.close() }

func writeFrame(w io.Writer, comp []byte) error {
	if !frameLenWritable(int64(len(comp))) {
		return fmt.Errorf("pfpl: frame of %d bytes exceeds the %d-byte frame limit", len(comp), maxWriteFrameBytes)
	}
	var hdr [framePrefix]byte
	//pfpl:ignore intwidth frameLenWritable above bounds len(comp) to maxWriteFrameBytes < 2^31
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(comp)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(comp)
	return err
}

// frameErr wraps err with the frame index and starting byte offset so a
// truncated- or corrupted-stream report pinpoints where decoding failed.
// errors.Is against the wrapped error (typically ErrCorrupt) keeps working.
func frameErr(idx int, off int64, err error) error {
	return fmt.Errorf("pfpl: frame %d at byte %d: %w", idx, off, err)
}

// frameAllocSeed is the initial body-read installment in readFrame; the
// installment doubles as data keeps arriving, so a full-size frame costs
// O(log(n)) reads while a lying prefix never inflates memory past roughly
// twice the bytes the stream actually delivered.
const frameAllocSeed = 64 << 10

// readFrame reads one length-prefixed frame into buf (grown as needed).
// idx and off — the frame's index and starting byte offset in the stream —
// only label errors. A clean end of stream is reported as bare io.EOF; any
// truncation or implausible length is ErrCorrupt wrapped with the frame
// position.
//
// The declared length is untrusted: a 4-byte prefix can claim up to the
// 2 GB frame cap, so the body is read in geometrically growing
// installments instead of one up-front n-byte allocation. A truncated
// stream then fails after allocating at most ~2× the bytes it actually
// contained, never the full declared size.
func readFrame(r io.Reader, buf []byte, idx int, off int64) ([]byte, error) {
	var hdr [framePrefix]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, frameErr(idx, off, ErrCorrupt) // truncated length prefix
		}
		return nil, err // io.EOF: clean end of stream
	}
	// The footer index of a v2 stream begins with the "PFIX" magic exactly
	// where a frame length prefix would sit; no writable frame is that
	// large, so seeing it means the frames are over. A sequential reader
	// reports a clean end of stream and leaves the footer to OpenIndexed.
	if binary.LittleEndian.Uint32(hdr[:]) == core.IndexMagicWord {
		return nil, io.EOF
	}
	// The declared length is compared in int64: maxFrameBytes (2^31) does
	// not fit int on 32-bit targets, and a length above the platform's int
	// range could not back a slice there either.
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if !frameLenReadable(n) {
		return nil, frameErr(idx, off, ErrCorrupt)
	}
	if int64(cap(buf)) >= n {
		// A recycled buffer already this large was proven out by an earlier
		// frame, of this stream or another; fill it directly.
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = ErrCorrupt // frame body cut short
			}
			return nil, frameErr(idx, off, err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for step := int64(frameAllocSeed); int64(len(buf)) < n; step *= 2 {
		take := min(step, n-int64(len(buf)))
		lo := len(buf)
		buf = append(buf, make([]byte, take)...)
		if _, err := io.ReadFull(r, buf[lo:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = ErrCorrupt // frame body cut short
			}
			return nil, frameErr(idx, off, err)
		}
	}
	return buf, nil
}

// Reader32 incrementally decompresses a stream produced by Writer32. While
// the caller drains one frame, the next is already being read and
// decompressed in the background; frame and value buffers are recycled
// through process-wide pools, so a later stream reuses them too. Methods
// must not be called concurrently.
type Reader32 struct {
	s streamReader[float32]
}

// NewReader32 creates a streaming decompressor.
func NewReader32(r io.Reader, opts Options) *Reader32 {
	rd := &Reader32{}
	rd.s.init(r, func(frame []byte, dst []float32) ([]float32, error) {
		return Decompress32(frame, dst, opts)
	})
	return rd
}

// Read fills dst with decompressed values, returning the count. It returns
// io.EOF when the stream is exhausted. A zero-length dst reports the
// reader's sticky state: (0, nil) on a healthy stream, the sticky error
// (io.EOF, ErrCorrupt, ...) once one has occurred.
func (r *Reader32) Read(dst []float32) (int, error) { return r.s.read(dst) }

// Reader64 incrementally decompresses a double-precision stream with the
// same single-frame read-ahead as Reader32.
type Reader64 struct {
	s streamReader[float64]
}

// NewReader64 creates a double-precision streaming decompressor.
func NewReader64(r io.Reader, opts Options) *Reader64 {
	rd := &Reader64{}
	rd.s.init(r, func(frame []byte, dst []float64) ([]float64, error) {
		return Decompress64(frame, dst, opts)
	})
	return rd
}

// Read fills dst with decompressed values, returning io.EOF at the end. A
// zero-length dst reports the reader's sticky state.
func (r *Reader64) Read(dst []float64) (int, error) { return r.s.read(dst) }
