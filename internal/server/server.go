// Package server is the pfpl serving layer: an HTTP service exposing
// streamed compression and decompression over the framed stream format,
// with admission control in front and instrumentation throughout.
//
// The request path is built from three bounded resources:
//
//   - A persistent cpucomp worker pool (pfpl.CPUPool) shared by every
//     request, so chunk-level parallelism costs no per-request goroutine
//     spawning and the process's compression concurrency is fixed at the
//     pool size no matter the request count.
//   - An in-flight byte budget (Admission): each request reserves the bytes
//     its pipeline can buffer before it starts; a full budget answers 429
//     with a Retry-After estimate instead of buffering unboundedly.
//   - A pipeline slot gate bounding concurrently *active* requests; waiters
//     queue on their own request context, so a disconnecting client frees
//     its slot immediately.
//
// Responses stream: request bodies are consumed frame by frame and
// compressed output is written as it is produced, so a request's memory
// footprint is its admission reservation, not its body size. Per-request
// deadlines propagate into the frame pipeline via StreamOptions.Context,
// and every error-bound guarantee of the library holds on the served path
// byte for byte (pinned by internal/conformance's served-path sweep).
// POST /v1/batch is the one buffered endpoint: it takes one small field per
// request and answers it with a single direct pfpl.Compress32/64 call under
// the same two gates (see batch.go).
//
// Every handler ends in one exit helper (reqExit.done) that counts the
// outcome and observes the latency in a fixed per-route table, which
// GET /v1/status (the snapshot `pfpl top` renders) sums. Beyond that,
// observability follows the life of a request (see telemetry.go): a
// deterministic head sampler (Config.TraceSample) or an inbound W3C
// traceparent selects requests that record a full trace into a bounded
// ring behind GET /debug/traces, and every request emits one wide slog
// event when logging is on. With neither configured the wrapper is
// skipped entirely, preserving the zero-allocation serve path.
package server

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pfpl"
	"pfpl/internal/bufpool"
	"pfpl/internal/obs"
	"pfpl/internal/server/metrics"
)

// Defaults for the zero Config.
const (
	// DefaultMaxInflightBytes bounds the summed admission reservations:
	// enough for a few dozen default-sized pipelines.
	DefaultMaxInflightBytes = 256 << 20
	// DefaultFrameValues is the server's frame size when the client does
	// not pass one: smaller than the library default so per-request
	// reservations stay modest under many concurrent clients.
	DefaultFrameValues = 1 << 18
	// maxServeFrameValues caps the client-requested frame size; larger
	// frames would let a single request reserve the whole budget.
	maxServeFrameValues = 1 << 22
)

// Config configures a Server. The zero value is production-ready: a shared
// worker pool sized to GOMAXPROCS, a 256 MB in-flight byte budget, twice
// GOMAXPROCS active pipelines, and no per-request deadline.
type Config struct {
	// Workers sizes the shared compression pool (0 = one per logical CPU).
	Workers int
	// MaxInflightBytes is the admission byte budget (0 = default;
	// negative = admit only zero-byte reservations, i.e. shed everything).
	MaxInflightBytes int64
	// MaxConcurrent bounds concurrently active request pipelines
	// (0 = 2 × GOMAXPROCS).
	MaxConcurrent int
	// RequestTimeout is the per-request deadline enforced through context
	// cancellation down to the frame pipeline (0 = none).
	RequestTimeout time.Duration
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// GET /debug/pprof/. Off by default: the profile endpoints can stall a
	// loaded process and belong behind deliberate opt-in (and, in any real
	// deployment, network-level access control).
	EnablePprof bool
	// Logger, when non-nil, enables structured request logging: one line
	// per request with a generated request id (also answered in the
	// X-Request-Id response header), method, path, status, response bytes,
	// and duration.
	Logger *slog.Logger
	// TraceSample is the head-sampling rate in [0, 1] for per-request
	// tracing: that fraction of requests records a full trace — HTTP phases
	// (admission wait, slot wait, body read) linked to the codec's own
	// stage spans — retained in a bounded ring behind GET /debug/traces.
	// 0 disables sampling entirely; the serve hot path then pays nothing
	// for the tracing layer.
	TraceSample float64
	// TraceSlow, when positive, promotes any request slower than this into
	// the trace ring even when head sampling passed it by (with synthetic
	// phase spans rebuilt from the always-measured phase durations). Error
	// (5xx) requests are promoted unconditionally whenever the telemetry
	// layer is active.
	TraceSlow time.Duration
}

// Server is the HTTP service. Create with New, serve via ServeHTTP (it
// implements http.Handler), stop with Close.
type Server struct {
	cfg      Config
	dev      *pfpl.CPUPool
	adm      *Admission
	slots    chan struct{}
	reg      *metrics.Registry
	mux      *http.ServeMux
	frames   *frameStore
	objects  *objectStore
	draining atomic.Bool
	idBase   string // per-process random prefix for request ids
	reqSeq   atomic.Uint64
	sampler  *obs.Sampler
	traces   *traceRing // nil when tracing is inactive
	served   [numServedRoutes]routeStats
	started  time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInflightBytes == 0 {
		cfg.MaxInflightBytes = DefaultMaxInflightBytes
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		dev:   pfpl.NewCPUPool(cfg.Workers),
		adm:   NewAdmission(cfg.MaxInflightBytes),
		slots: make(chan struct{}, cfg.MaxConcurrent),
		reg:   metrics.New(),
		mux:   http.NewServeMux(),
	}
	s.frames = newFrameStore(s.adm, s)
	s.objects = &objectStore{byName: make(map[string]*object)}
	s.started = time.Now()
	s.sampler = obs.NewSampler(cfg.TraceSample, cfg.TraceSlow)
	if s.sampler.Enabled() || cfg.TraceSlow > 0 {
		s.traces = newTraceRing(traceRingSize)
	}
	for i := range s.served {
		st := &s.served[i]
		for o := range st.outcomes {
			st.outcomes[o] = s.reg.Counter("route." + routeNames[i] + "." + outcomeNames[o])
		}
		st.latency = s.reg.Histogram("route." + routeNames[i] + ".latency_ns")
	}
	var seed [4]byte
	rand.Read(seed[:])
	s.idBase = hex.EncodeToString(seed[:])
	s.mux.HandleFunc("POST /v1/compress", s.handleCompress)
	s.mux.HandleFunc("POST /v1/decompress", s.handleDecompress)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("PUT /v1/objects/{name}", s.handleObjectPut)
	s.mux.HandleFunc("GET /v1/objects/{name}", s.handleObjectGet)
	s.mux.HandleFunc("HEAD /v1/objects/{name}", s.handleObjectGet)
	s.mux.HandleFunc("DELETE /v1/objects/{name}", s.handleObjectDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler. When the telemetry layer is active
// (a configured Logger, a positive trace-sampling rate, or a slow-request
// threshold) every request runs inside a reqEvent: it gets a request id
// (the caller's X-Request-Id echoed when well-formed, generated otherwise),
// a W3C trace context (continuing an inbound traceparent when present), one
// wide-event log line on completion, and — for the sampled fraction plus
// promoted error/slow requests — a full trace in
// the /debug/traces ring. When the layer is inactive the mux dispatches
// directly; that path is identical to a telemetry-free build.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.telemetryActive() {
		s.mux.ServeHTTP(w, r)
		return
	}
	ev := s.beginEvent(r)
	h := w.Header()
	h.Set("X-Request-Id", ev.id)
	h.Set("traceparent", ev.tc.Traceparent())
	sw := &statusWriter{ResponseWriter: w}
	// Deferred, not post-call: a handler that aborts a broken stream
	// (http.ErrAbortHandler) still gets its request logged on the way out.
	defer s.finishEvent(ev, sw, r)
	s.mux.ServeHTTP(sw, r.WithContext(withEvent(r.Context(), ev)))
}

// statusWriter observes the status code and body size flowing through a
// logged request. Unwrap keeps http.ResponseController working — the
// streaming handlers rely on EnableFullDuplex reaching the real writer.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// status is the logged status code: an implicit 200 when the handler never
// wrote anything.
func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Admission returns the byte-budget gate (exposed for tests and the
// healthz report).
func (s *Server) Admission() *Admission { return s.adm }

// SetDraining flips the health signal: healthz answers 503 so load
// balancers stop routing here, while in-flight and even newly arriving
// requests still complete (http.Server.Shutdown handles the listener).
func (s *Server) SetDraining() { s.draining.Store(true) }

// Close releases the shared worker pool. In-flight requests finish
// normally (pool calls degrade to inline execution).
func (s *Server) Close() { s.dev.Close() }

// ---- request parameters ----

type reqParams struct {
	mode     pfpl.Mode
	modeName string
	bound    float64
	double   bool
	frame    int
	checksum bool
}

// param reads a parameter from the query string, falling back to an
// X-Pfpl-<Name> header, so clients that cannot touch the URL (proxies,
// signed URLs) can still pass options.
func param(r *http.Request, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.Header.Get("X-Pfpl-" + name)
}

func parseParams(r *http.Request, needBound bool) (reqParams, error) {
	p := reqParams{mode: pfpl.ABS, modeName: "abs", bound: 0, frame: DefaultFrameValues}
	switch m := strings.ToLower(param(r, "mode")); m {
	case "", "abs":
	case "rel":
		p.mode, p.modeName = pfpl.REL, "rel"
	case "noa":
		p.mode, p.modeName = pfpl.NOA, "noa"
	default:
		return p, fmt.Errorf("unknown mode %q (want abs, rel, or noa)", m)
	}
	switch prec := strings.ToLower(param(r, "precision")); prec {
	case "", "f32", "32", "single", "float32":
	case "f64", "64", "double", "float64":
		p.double = true
	default:
		return p, fmt.Errorf("unknown precision %q (want f32 or f64)", prec)
	}
	if b := param(r, "bound"); b != "" {
		v, err := strconv.ParseFloat(b, 64)
		if err != nil {
			return p, fmt.Errorf("bad bound %q: %w", b, err)
		}
		p.bound = v
	} else if needBound {
		return p, errors.New("missing required parameter: bound")
	}
	if needBound && !(p.bound > 0 && !math.IsInf(p.bound, 0)) {
		return p, fmt.Errorf("bound must be positive and finite, got %g", p.bound)
	}
	if f := param(r, "frame"); f != "" {
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("bad frame %q: want a positive value count", f)
		}
		if v > maxServeFrameValues {
			return p, fmt.Errorf("frame %d exceeds the served cap %d", v, maxServeFrameValues)
		}
		p.frame = v
	}
	switch c := strings.ToLower(param(r, "checksum")); c {
	case "", "0", "false":
	case "1", "true":
		p.checksum = true
	default:
		return p, fmt.Errorf("bad checksum %q: want 0 or 1", c)
	}
	return p, nil
}

func (p reqParams) elemSize() int {
	if p.double {
		return 8
	}
	return 4
}

// reserveBytes is a request's admission reservation: three frame-sized
// buffers (input batch, pipeline frame, output/read-ahead) — the memory a
// streaming request can actually pin, independent of its body size. A
// declared Content-Length smaller than one frame shrinks the reservation,
// so tiny requests don't hoard budget.
func (p reqParams) reserveBytes(contentLength int64) int64 {
	base := int64(p.frame) * int64(p.elemSize())
	if contentLength > 0 && contentLength < base {
		base = contentLength
	}
	return 3 * base
}

// ---- shared request plumbing ----

// reqExit is one handler call's accounting; ev is nil with telemetry off.
type reqExit struct {
	st    *routeStats
	ev    *reqEvent
	start time.Time
}

// enter starts the accounting for a handler serving route.
func (s *Server) enter(route int, r *http.Request) reqExit {
	return reqExit{st: &s.served[route], ev: eventFrom(r.Context()), start: time.Now()}
}

// done counts the outcome and observes the latency since entry (with the
// trace id as exemplar when sampled). Every handler path calls it once.
func (x reqExit) done(o outcome) {
	x.st.outcomes[o].Add(1)
	x.st.latency.ObserveExemplar(float64(time.Since(x.start).Nanoseconds()), x.ev.exemplar())
}

// admit runs the admission and slot gates, returning a release func, or
// ends the request through x with a rejection response and returns false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, x reqExit, reserve int64) (func(), bool) {
	tAdm := time.Now()
	if err := s.adm.Acquire(reserve); err != nil {
		switch {
		case errors.Is(err, ErrTooLarge):
			x.done(outcomeTooLarge)
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		default:
			x.done(outcomeSaturated)
			// retryAfterSeconds clamps to >= 1: RetryAfter floors at a second
			// today, but a "Retry-After: 0" from a future sub-second estimate
			// would tell clients to hammer, so the render clamps too.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.adm.RetryAfter(reserve))))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		}
		return nil, false
	}
	x.ev.phase(obs.StageAdmissionWait, tAdm)
	t0 := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		// Client gone while queued: hand back the budget without touching a
		// pipeline slot.
		s.adm.Release(reserve, 0)
		x.done(outcomeCanceled)
		return nil, false
	}
	x.ev.phase(obs.StageSlotWait, t0)
	released := false
	return func() {
		if released {
			return
		}
		released = true
		<-s.slots
		s.adm.Release(reserve, time.Since(t0))
	}, true
}

// requestContext applies the configured per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// countingWriter tracks bytes written to the response.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// ctxReader fails reads once the request context is done (the decode
// path's reader API is context-free) and counts the bytes read.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
	n   int64
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// abort reports a mid-stream failure after response bytes are already out:
// the only honest signal left is killing the connection, which
// http.ErrAbortHandler does without a stack dump.
func abort() { panic(http.ErrAbortHandler) }

// ---- compress ----

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	x := s.enter(routeCompress, r)
	p, err := parseParams(r, true)
	if err != nil {
		x.done(outcomeClientError)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reserve := p.reserveBytes(r.ContentLength)
	release, ok := s.admit(w, r, x, reserve)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	x.ev.setParams(p.modeName, precisionName(p.double))
	t0 := time.Now()
	// Both directions stream: we keep reading the request body after the
	// first response bytes go out, which HTTP/1.x forbids by default (the
	// server closes the body at the first write). Full-duplex lifts that;
	// on transports where it is unsupported it fails, and the handler then
	// errors on the first post-write read rather than silently truncating.
	_ = http.NewResponseController(w).EnableFullDuplex()
	cw := &countingWriter{w: w}
	opts := pfpl.Options{Mode: p.mode, Bound: p.bound, Device: s.dev, Checksum: p.checksum}
	// A sampled request threads its recorder into the stream writer: codec
	// stage spans (quantize/encode/emit per frame) land in the same trace as
	// the HTTP phases, and the writer tallies per-chunk encode outcomes.
	sopts := pfpl.StreamOptions{FrameValues: p.frame, Concurrency: 1, Context: ctx, Trace: x.ev.tracer()}
	w.Header().Set("Content-Type", "application/octet-stream")

	var bytesIn int64
	var werr error
	if p.double {
		bytesIn, werr = compressBody[float64](ctx, r.Body, cw, opts, sopts, pfpl.NewWriter64)
	} else {
		bytesIn, werr = compressBody[float32](ctx, r.Body, cw, opts, sopts, pfpl.NewWriter32)
	}
	// The read phase is the whole body-processing loop: request reads and
	// codec work interleave on the streamed path, so this is wall time of
	// read+compress combined, not pure socket-read time.
	x.ev.phase(obs.StageRead, t0)
	x.ev.setBytes(bytesIn, cw.n)
	s.reg.Counter("bytes.in").Add(bytesIn)
	s.reg.Counter("bytes.out").Add(cw.n)
	if werr != nil {
		s.finishError(w, x, cw.n > 0, werr)
		return
	}
	x.done(outcomeOK)
	if cw.n > 0 {
		s.reg.Histogram("ratio.compress").ObserveExemplar(float64(bytesIn)/float64(cw.n), x.ev.exemplar())
	}
}

// precisionName renders an element precision for telemetry labels.
func precisionName(double bool) string {
	if double {
		return "f64"
	}
	return "f32"
}

// finishError classifies a streaming failure. Before the first response
// byte a clean status can still go out; after it, only a connection abort
// tells the client the stream is incomplete.
func (s *Server) finishError(w http.ResponseWriter, x reqExit, streamed bool, err error) {
	o, status := outcomeError, http.StatusInternalServerError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		o, status = outcomeCanceled, http.StatusServiceUnavailable
	case errors.Is(err, pfpl.ErrCorrupt) || errors.Is(err, pfpl.ErrBadBound) ||
		errors.Is(err, pfpl.ErrBoundSmall) || errors.Is(err, errBadBody):
		o, status = outcomeClientError, http.StatusBadRequest
	}
	x.done(o)
	if streamed {
		abort()
	}
	http.Error(w, err.Error(), status)
}

// errBadBody marks malformed raw input (a body that is not a whole number
// of elements).
var errBadBody = errors.New("server: request body is not a whole number of values")

// Per-request scratch is taken from process-wide pools and returned when the
// handler exits, so a warm server does not allocate and zero a frame of raw
// bytes and values for every request: rawScratch holds the raw
// little-endian bodies, valueScratch the decoded values of each precision.
var (
	rawScratch   bufpool.Pool[byte]
	valueScratch bufpool.Floats
)

// compressBody streams a raw little-endian body of T values through the
// stream writer newWriter makes on dst, one frame at a time.
func compressBody[T float32 | float64, W interface {
	Write([]T) error
	Close() error
}](ctx context.Context, body io.Reader, dst io.Writer, opts pfpl.Options, sopts pfpl.StreamOptions,
	newWriter func(io.Writer, pfpl.Options, pfpl.StreamOptions) (W, error)) (int64, error) {
	wr, err := newWriter(dst, opts, sopts)
	if err != nil {
		return 0, err
	}
	size := elemSize[T]()
	in := &ctxReader{ctx: ctx, r: body}
	bb := rawScratch.Get(sopts.FrameValues * size)
	defer rawScratch.Put(bb)
	vp := bufpool.Of[T](&valueScratch)
	vb := vp.Get(sopts.FrameValues)
	defer vp.Put(vb)
	buf := (*bb)[:sopts.FrameValues*size]
	vals := (*vb)[:sopts.FrameValues]
	var total int64
	for {
		n, rerr := io.ReadFull(in, buf)
		if rerr == io.ErrUnexpectedEOF {
			rerr = io.EOF
		}
		if rerr != nil && rerr != io.EOF {
			wr.Close()
			return total, rerr
		}
		if n%size != 0 {
			wr.Close()
			return total, errBadBody
		}
		total += int64(n)
		getLE(vals[:n/size], buf)
		if n > 0 {
			if werr := wr.Write(vals[:n/size]); werr != nil {
				wr.Close()
				return total, werr
			}
		}
		if rerr == io.EOF {
			return total, wr.Close()
		}
	}
}

// ---- decompress ----

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	x := s.enter(routeDecompress, r)
	p, err := parseParams(r, false)
	if err != nil {
		x.done(outcomeClientError)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reserve := p.reserveBytes(r.ContentLength)
	release, ok := s.admit(w, r, x, reserve)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	t0 := time.Now()
	// See handleCompress: the decode loop reads frames after response
	// bytes have gone out.
	_ = http.NewResponseController(w).EnableFullDuplex()
	body := &ctxReader{ctx: ctx, r: r.Body}
	br := bufio.NewReaderSize(body, peekBytes)
	// The first frame's container header names the stream's precision; peek
	// it rather than trusting a client parameter. Stat needs the header and
	// the chunk-size table, so peek generously: 64 KB covers the table of
	// the largest served frame (4 Mi values → 1024 chunks → 4 KB) with
	// room to spare. Peek returns what exists if the body is shorter.
	peek, _ := br.Peek(peekBytes)
	if len(peek) < framePrefix+containerHeaderLen {
		x.done(outcomeClientError)
		http.Error(w, "body too short for a framed pfpl stream", http.StatusBadRequest)
		return
	}
	info, err := pfpl.Stat(peek[framePrefix:])
	if err != nil {
		x.done(outcomeClientError)
		http.Error(w, fmt.Sprintf("first frame: %v", err), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Pfpl-Precision", precisionName(info.Double))

	x.ev.setParams("any", precisionName(info.Double))
	cw := &countingWriter{w: w}
	// Options.Trace reaches the decode path too: a sampled decompression
	// records per-chunk decode spans into the request's trace.
	opts := pfpl.Options{Device: s.dev, Trace: x.ev.tracer()}
	var bytesOut int64
	var derr error
	if info.Double {
		bytesOut, derr = decompressBody(pfpl.NewReader64(br, opts), cw, p.frame)
	} else {
		bytesOut, derr = decompressBody(pfpl.NewReader32(br, opts), cw, p.frame)
	}
	x.ev.phase(obs.StageRead, t0)
	x.ev.setBytes(body.n, bytesOut)
	s.reg.Counter("bytes.in").Add(body.n)
	s.reg.Counter("bytes.out").Add(bytesOut)
	if derr != nil {
		s.finishError(w, x, cw.n > 0, derr)
		return
	}
	x.done(outcomeOK)
}

// Container framing constants mirrored from the library (the server peeks
// only; all real parsing happens in pfpl).
const (
	framePrefix        = 4
	containerHeaderLen = 40
	peekBytes          = 64 << 10
)

// decompressBody streams the decoded values of a framed stream to dst as
// raw little-endian bytes.
func decompressBody[T float32 | float64](rd interface{ Read([]T) (int, error) }, dst io.Writer, frame int) (int64, error) {
	size := elemSize[T]()
	vp := bufpool.Of[T](&valueScratch)
	vb := vp.Get(frame)
	defer vp.Put(vb)
	ob := rawScratch.Get(frame * size)
	defer rawScratch.Put(ob)
	vals := (*vb)[:frame]
	out := (*ob)[:frame*size]
	var total int64
	for {
		n, err := rd.Read(vals)
		putLE(out, vals[:n])
		if n > 0 {
			if _, werr := dst.Write(out[:n*size]); werr != nil {
				return total, werr
			}
			total += int64(n) * int64(size)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// ---- health & metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"status":%q,"inflight_bytes":%d,"budget_bytes":%d,"pool_workers":%d}`+"\n",
		status, s.adm.Inflight(), s.adm.Capacity(), s.dev.Workers())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w, "pfpl")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s.reg.String())
}

// wantsPrometheus decides the metrics representation: an explicit format
// query parameter wins, then an Accept header naming a text exposition;
// the default stays JSON so existing scrapers keep working.
func wantsPrometheus(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("format")) {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}
