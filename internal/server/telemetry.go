package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"pfpl/internal/obs"
	"pfpl/internal/server/metrics"
)

// The request-telemetry layer: per-request trace sampling, the wide-event
// log line, the bounded ring of recent traces behind /debug/traces, and the
// /v1/status snapshot. The wrapper is opt-in by configuration: with no
// Logger and the sampler disabled, ServeHTTP dispatches straight to the
// mux. When active, the always-on work per request is one reqEvent
// allocation and a handful of time.Now calls at phase boundaries; a full
// trace recorder is only allocated for the sampled fraction (plus
// error/slow requests promoted after the fact from the already-measured
// phases).

// traceRingSize bounds the retained traces when tracing is enabled.
const traceRingSize = 64

// traceSpanCap bounds the span ring of one sampled request's recorder:
// enough for the HTTP phases plus per-frame (streaming) or per-chunk
// (batch/decompress) codec spans of a large request; older spans drop from
// the ring but stay in the aggregates.
const traceSpanCap = 2048

// ---- routes ----

// Route indices, derived from the path prefix and never from
// client-controlled strings. Routes below numServedRoutes have handlers
// that feed the outcome table; all of them label log lines and traces.
const (
	routeCompress = iota
	routeDecompress
	routeBatch
	routeObjects
	routeHealthz
	routeMetrics
	routeStatus
	routeTraces
	routeDebug
	routeOther
	numRoutes

	numServedRoutes = routeObjects + 1
)

var routeNames = [numRoutes]string{
	"compress", "decompress", "batch", "objects",
	"healthz", "metrics", "status", "traces", "debug", "other",
}

func routeOf(path string) int {
	switch {
	case strings.HasPrefix(path, "/v1/compress"):
		return routeCompress
	case strings.HasPrefix(path, "/v1/decompress"):
		return routeDecompress
	case strings.HasPrefix(path, "/v1/batch"):
		return routeBatch
	case strings.HasPrefix(path, "/v1/objects/"):
		return routeObjects
	case path == "/healthz":
		return routeHealthz
	case path == "/metrics":
		return routeMetrics
	case path == "/v1/status":
		return routeStatus
	case path == "/debug/traces":
		return routeTraces
	case strings.HasPrefix(path, "/debug/"):
		return routeDebug
	}
	return routeOther
}

// outcome is how a served request ended, commented with its status.
type outcome int

const (
	outcomeOK          outcome = iota // 2xx
	outcomeClientError                // 400, 411, 416
	outcomeTooLarge                   // 413
	outcomeSaturated                  // 429
	outcomeCanceled                   // 503, or the client left first
	outcomeNotFound                   // 404
	outcomeError                      // 500
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "client_error", "too_large", "saturated", "canceled", "not_found", "error",
}

// routeStats is one served route's instruments, interned at New so a
// handler's exit formats no name and takes no registry lock.
type routeStats struct {
	outcomes [numOutcomes]*expvar.Int
	latency  *metrics.Histogram
}

// ---- per-request event ----

// reqPhase is one measured HTTP-level phase of a request.
type reqPhase struct {
	stage   obs.Stage
	startNS int64 // offset from the request start
	durNS   int64
}

// reqEvent is the per-request telemetry context, created by ServeHTTP when
// the telemetry layer is active and threaded to the handlers through the
// request context. All fields are owned by the request goroutine except
// where noted; a nil *reqEvent (telemetry inactive) is a no-op everywhere.
type reqEvent struct {
	id      string
	tc      obs.TraceContext
	sampled bool
	rec     *obs.Recorder // non-nil iff sampled
	start   time.Time
	route   int

	mode      string
	precision string
	bytesIn   int64
	bytesOut  int64
	ratio     float64

	phases  [6]reqPhase
	nPhases int
}

type reqEventKey struct{}

func withEvent(ctx context.Context, ev *reqEvent) context.Context {
	return context.WithValue(ctx, reqEventKey{}, ev)
}

// eventFrom returns the request's telemetry event, or nil when the layer is
// inactive.
func eventFrom(ctx context.Context) *reqEvent {
	ev, _ := ctx.Value(reqEventKey{}).(*reqEvent)
	return ev
}

// exemplar is the tag for this request's histogram observations: its
// trace id when sampled, else "" (ObserveExemplar then only observes).
func (ev *reqEvent) exemplar() string {
	if ev == nil || !ev.sampled {
		return ""
	}
	return ev.tc.TraceIDString()
}

// tracer returns the recorder codec calls should record into (nil unless
// sampled — the codec's nil fast path then costs nothing).
func (ev *reqEvent) tracer() *obs.Recorder {
	if ev == nil {
		return nil
	}
	return ev.rec
}

func (ev *reqEvent) setParams(mode, precision string) {
	if ev == nil {
		return
	}
	ev.mode, ev.precision = mode, precision
}

func (ev *reqEvent) setBytes(in, out int64) {
	if ev == nil {
		return
	}
	ev.bytesIn, ev.bytesOut = in, out
	if out > 0 {
		ev.ratio = float64(in) / float64(out)
	}
}

// phase records the interval [from, now) as the given HTTP-level stage: it
// lands in the wide event and /v1/status always, and additionally as a span
// on the recorder's "http" track when the request is sampled.
func (ev *reqEvent) phase(stage obs.Stage, from time.Time) {
	if ev == nil {
		return
	}
	startNS := from.Sub(ev.start).Nanoseconds()
	if startNS < 0 {
		startNS = 0
	}
	durNS := time.Since(from).Nanoseconds()
	if durNS < 0 {
		durNS = 0
	}
	if ev.nPhases < len(ev.phases) {
		ev.phases[ev.nPhases] = reqPhase{stage: stage, startNS: startNS, durNS: durNS}
		ev.nPhases++
	}
	if ev.rec != nil {
		ev.rec.Record(obs.Span{
			Start: startNS, Dur: durNS,
			Track: ev.rec.Track("http"), Stage: stage,
		})
	}
}

// phaseNS returns the summed duration of the given stage's phases.
func (ev *reqEvent) phaseNS(stage obs.Stage) int64 {
	if ev == nil {
		return 0
	}
	var total int64
	for _, p := range ev.phases[:ev.nPhases] {
		if p.stage == stage {
			total += p.durNS
		}
	}
	return total
}

// ---- ServeHTTP integration ----

// telemetryActive reports whether ServeHTTP wraps requests in the telemetry
// layer. When false the mux is dispatched directly — the zero-overhead
// configuration the serve benchmarks pin.
func (s *Server) telemetryActive() bool {
	return s.cfg.Logger != nil || s.sampler.Enabled() || s.cfg.TraceSlow > 0
}

// maxRequestIDLen caps an echoed client request id; anything longer (or
// containing control bytes) is replaced with a generated id.
const maxRequestIDLen = 64

// requestID echoes a well-formed caller-supplied X-Request-Id, or generates
// a process-unique one.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= maxRequestIDLen && isPrintableASCII(id) {
		return id
	}
	return s.nextID()
}

func (s *Server) nextID() string {
	// Matches the PR 3 id shape: random process prefix + hex sequence.
	return s.idBase + "-" + fmt.Sprintf("%x", s.reqSeq.Add(1))
}

func isPrintableASCII(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] < 0x21 || v[i] > 0x7e {
			return false
		}
	}
	return true
}

// beginEvent builds the telemetry context for one request: request id,
// trace context (continuing an inbound W3C traceparent when present, fresh
// otherwise), and the head-sampling decision. A malformed traceparent
// never fails the request — it falls back to a fresh trace.
func (s *Server) beginEvent(r *http.Request) *reqEvent {
	ev := &reqEvent{
		start: time.Now(),
		route: routeOf(r.URL.Path),
		id:    s.requestID(r),
	}
	sampled := s.sampler.Sample()
	if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		// Continue the caller's trace under a fresh span id; an inbound
		// sampled flag is honored as a sampling request (the ring and span
		// caps bound what that can cost).
		sampled = sampled || tc.Sampled()
		ev.tc = tc.ChildSpan()
	} else {
		ev.tc = obs.NewTraceContext(sampled)
	}
	if sampled {
		ev.sampled = true
		ev.tc.Flags |= obs.FlagSampled
		ev.rec = obs.New(traceSpanCap)
	}
	return ev
}

// finishEvent closes out one request: codec-effectiveness counters, the
// wide-event log line, and the trace ring (sampled requests always;
// error/slow requests promoted with synthetic phase spans).
func (s *Server) finishEvent(ev *reqEvent, sw *statusWriter, r *http.Request) {
	dur := time.Since(ev.start)
	status := sw.status()

	// Chunk-mode counters cover the sampled fraction only: the tally costs a
	// chunk-table parse per frame, which unsampled requests must not pay.
	var chunks, rawChunks int64
	if ev.rec != nil {
		st := ev.rec.Stats()
		chunks, rawChunks = st.Chunks, st.RawChunks
		if chunks > 0 {
			s.reg.Counter("chunks.compressed").Add(chunks - rawChunks)
			s.reg.Counter("chunks.raw").Add(rawChunks)
		}
	}

	if s.cfg.Logger != nil {
		attrs := make([]slog.Attr, 0, 16)
		attrs = append(attrs,
			slog.String("id", ev.id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", dur),
			slog.String("trace", ev.tc.TraceIDString()),
			slog.String("route", routeNames[ev.route]),
			slog.String("peer", r.RemoteAddr),
		)
		if ev.mode != "" {
			attrs = append(attrs, slog.String("mode", ev.mode), slog.String("precision", ev.precision))
		}
		if ev.bytesIn > 0 || ev.bytesOut > 0 {
			attrs = append(attrs,
				slog.Int64("bytes_in", ev.bytesIn),
				slog.Int64("bytes_out", ev.bytesOut))
		}
		if ev.ratio > 0 {
			attrs = append(attrs, slog.Float64("ratio", ev.ratio))
		}
		if chunks > 0 {
			attrs = append(attrs,
				slog.Int64("chunks", chunks),
				slog.Int64("raw_chunks", rawChunks))
		}
		for _, ph := range []struct {
			key   string
			stage obs.Stage
		}{
			{"admission_wait", obs.StageAdmissionWait},
			{"slot_wait", obs.StageSlotWait},
			{"codec", obs.StageRead},
		} {
			if ns := ev.phaseNS(ph.stage); ns > 0 {
				attrs = append(attrs, slog.Duration(ph.key, time.Duration(ns)))
			}
		}
		if ev.sampled {
			attrs = append(attrs, slog.Bool("sampled", true))
		}
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}

	if s.traces == nil {
		return
	}
	promoted := ""
	if !ev.sampled {
		switch {
		case status >= 500:
			promoted = "error"
		case s.sampler.Slow(dur):
			promoted = "slow"
		}
		if promoted == "" {
			return
		}
	}
	s.traces.add(s.buildTrace(ev, status, dur, promoted))
}

// buildTrace flattens one finished request into a stored trace. Sampled
// requests contribute their recorder's spans; promoted requests get
// synthetic spans rebuilt from the measured phases, so an error or slow
// request is never an empty timeline.
func (s *Server) buildTrace(ev *reqEvent, status int, dur time.Duration, promoted string) *storedTrace {
	st := &storedTrace{
		ID:       ev.id,
		TraceID:  ev.tc.TraceIDString(),
		SpanID:   ev.tc.SpanIDString(),
		Route:    routeNames[ev.route],
		Mode:     ev.mode,
		Start:    ev.start,
		DurNS:    dur.Nanoseconds(),
		Status:   status,
		Sampled:  ev.sampled,
		Promoted: promoted,
		BytesIn:  ev.bytesIn,
		BytesOut: ev.bytesOut,
		Ratio:    ev.ratio,
	}
	request := obs.Span{Dur: st.DurNS, Stage: obs.StageRequest}
	if ev.rec != nil {
		ev.rec.Record(obs.Span{Dur: st.DurNS, Track: ev.rec.Track("http"), Stage: obs.StageRequest})
		st.Tracks = ev.rec.TrackNames()
		st.Spans = ev.rec.Spans()
		st.Stats = ev.rec.Stats()
		return st
	}
	st.Tracks = []string{"http"}
	st.Spans = append(st.Spans, request)
	for _, p := range ev.phases[:ev.nPhases] {
		st.Spans = append(st.Spans, obs.Span{Start: p.startNS, Dur: p.durNS, Stage: p.stage})
	}
	return st
}

// ---- trace ring ----

// storedTrace is one retained request trace, already flattened for export.
type storedTrace struct {
	ID       string     `json:"id"`
	TraceID  string     `json:"trace_id"`
	SpanID   string     `json:"span_id"`
	Route    string     `json:"route"`
	Mode     string     `json:"mode,omitempty"`
	Start    time.Time  `json:"start"`
	DurNS    int64      `json:"duration_ns"`
	Status   int        `json:"status"`
	Sampled  bool       `json:"sampled"`
	Promoted string     `json:"promoted,omitempty"`
	BytesIn  int64      `json:"bytes_in,omitempty"`
	BytesOut int64      `json:"bytes_out,omitempty"`
	Ratio    float64    `json:"ratio,omitempty"`
	Tracks   []string   `json:"tracks"`
	Spans    []obs.Span `json:"-"`
	Stats    obs.Stats  `json:"-"`
}

// traceRing retains the last N stored traces.
type traceRing struct {
	mu    sync.Mutex
	buf   []*storedTrace
	total uint64
}

func newTraceRing(n int) *traceRing {
	return &traceRing{buf: make([]*storedTrace, n)}
}

func (tr *traceRing) add(t *storedTrace) {
	tr.mu.Lock()
	tr.buf[tr.total%uint64(len(tr.buf))] = t
	tr.total++
	tr.mu.Unlock()
}

// snapshot returns the retained traces, most recent first.
func (tr *traceRing) snapshot() []*storedTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.total
	if n > uint64(len(tr.buf)) {
		n = uint64(len(tr.buf))
	}
	out := make([]*storedTrace, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, tr.buf[(tr.total-1-i)%uint64(len(tr.buf))])
	}
	return out
}

func (tr *traceRing) stats() (stored int, total uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	stored = len(tr.buf)
	if tr.total < uint64(stored) {
		stored = int(tr.total)
	}
	return stored, tr.total
}

// spanJSON is the export shape of one span: stages and outcomes by name,
// times in nanoseconds on the request's clock.
type spanJSON struct {
	Stage    string `json:"stage"`
	Track    string `json:"track"`
	Unit     int32  `json:"unit"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Outcome  string `json:"outcome,omitempty"`
	BytesIn  int64  `json:"bytes_in,omitempty"`
	BytesOut int64  `json:"bytes_out,omitempty"`
}

func (t *storedTrace) spansJSON() []spanJSON {
	out := make([]spanJSON, 0, len(t.Spans))
	for _, sp := range t.Spans {
		j := spanJSON{
			Stage:   sp.Stage.String(),
			Unit:    sp.Unit,
			StartNS: sp.Start,
			DurNS:   sp.Dur,
		}
		if int(sp.Track) < len(t.Tracks) {
			j.Track = t.Tracks[sp.Track]
		} else {
			j.Track = fmt.Sprintf("track-%d", sp.Track)
		}
		if sp.Outcome != obs.OutcomeNone {
			j.Outcome = sp.Outcome.String()
			j.BytesIn = sp.BytesIn
			j.BytesOut = sp.BytesOut
		}
		out = append(out, j)
	}
	return out
}

// handleTraces serves the trace ring. Without parameters it answers a JSON
// summary of the retained traces (most recent first); ?id= selects one
// trace by request or trace id and includes its spans; &format=chrome
// renders that trace as Chrome trace-event JSON for Perfetto.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.Error(w, "tracing disabled (start with -trace-sample > 0 or a logger)", http.StatusNotFound)
		return
	}
	traces := s.traces.snapshot()
	id := r.URL.Query().Get("id")
	if id == "" {
		w.Header().Set("Content-Type", "application/json")
		type summary struct {
			*storedTrace
			SpanCount int `json:"span_count"`
		}
		out := make([]summary, 0, len(traces))
		for _, t := range traces {
			out = append(out, summary{storedTrace: t, SpanCount: len(t.Spans)})
		}
		_, total := s.traces.stats()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"total_recorded": total, "traces": out})
		return
	}
	var sel *storedTrace
	for _, t := range traces {
		if t.ID == id || t.TraceID == id {
			sel = t
			break
		}
	}
	if sel == nil {
		http.Error(w, "no retained trace with that id", http.StatusNotFound)
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "chrome") {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="pfpl-trace-`+sel.TraceID+`.json"`)
		obs.WriteChromeTrace(w, "pfpl-serve "+sel.Route+" "+sel.ID, sel.Tracks, sel.Spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		*storedTrace
		Spans []spanJSON `json:"spans"`
	}{storedTrace: sel, Spans: sel.spansJSON()})
}

// ---- /v1/status ----

// handleStatus answers a one-shot JSON snapshot of the daemon: identity and
// uptime, the bounded resources (pool, slots, admission budget, dedup
// cache), tracing state, and per-route RED rollups summed from the outcome
// table. This is the polling surface behind `pfpl top`.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	type routeStatus struct {
		Requests     int64   `json:"requests"`
		Errors       int64   `json:"errors"`
		ClientErrors int64   `json:"client_errors"`
		P50Ms        float64 `json:"p50_ms"`
		P99Ms        float64 `json:"p99_ms"`
		MeanMs       float64 `json:"mean_ms"`
	}
	routes := make(map[string]routeStatus)
	for i := range s.served {
		var rs routeStatus
		for o := outcomeOK; o < numOutcomes; o++ {
			n := s.served[i].outcomes[o].Value()
			rs.Requests += n
			if o == outcomeError || o == outcomeCanceled {
				rs.Errors += n
			} else if o != outcomeOK {
				rs.ClientErrors += n
			}
		}
		if rs.Requests == 0 {
			continue
		}
		snap := s.served[i].latency.Snapshot()
		rs.P50Ms, rs.P99Ms, rs.MeanMs = snap.Quantile(0.5)/1e6, snap.Quantile(0.99)/1e6, snap.Mean()/1e6
		routes[routeNames[i]] = rs
	}
	cacheFrames, cacheIdle, cacheBytes := s.frames.stats()
	stored, total := 0, uint64(0)
	if s.traces != nil {
		stored, total = s.traces.stats()
	}
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	out := map[string]any{
		"status":         state,
		"build":          buildInfoSummary(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"pool_workers":   s.dev.Workers(),
		"slots": map[string]any{
			"active": len(s.slots),
			"max":    cap(s.slots),
		},
		"admission": map[string]any{
			"inflight_bytes":    s.adm.Inflight(),
			"budget_bytes":      s.adm.Capacity(),
			"drain_ns_per_byte": s.adm.DrainNsPerByte(),
		},
		"cache": map[string]any{
			"frames":      cacheFrames,
			"idle_frames": cacheIdle,
			"bytes":       cacheBytes,
		},
		"traces": map[string]any{
			"enabled":  s.traces != nil,
			"sampling": s.cfg.TraceSample,
			"stored":   stored,
			"recorded": total,
		},
		"routes": routes,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// buildInfoSummary reports the toolchain and VCS revision baked into the
// binary, when present.
func buildInfoSummary() map[string]string {
	out := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["go"] = bi.GoVersion
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out["revision"] = kv.Value
		case "vcs.time":
			out["vcs_time"] = kv.Value
		}
	}
	return out
}
