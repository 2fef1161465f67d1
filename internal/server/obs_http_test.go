package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pfpl"
)

func get(t *testing.T, url string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsNegotiation: the metrics endpoint answers JSON by default and
// the Prometheus text exposition when asked via query parameter or Accept
// header, with the query parameter winning.
func TestMetricsNegotiation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Metrics().Counter("route.compress.ok").Add(3)

	resp, body := get(t, ts.URL+"/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type = %q, want application/json", ct)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("default body is not JSON: %v", err)
	}

	resp, body = get(t, ts.URL+"/metrics?format=prometheus", nil)
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("prometheus content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE pfpl_route_compress_ok_total counter\n",
		"pfpl_route_compress_ok_total 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, body)
		}
	}

	resp, body = get(t, ts.URL+"/metrics", http.Header{"Accept": {"text/plain"}})
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("Accept text/plain answered %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "pfpl_route_compress_ok_total") {
		t.Fatalf("Accept text/plain body not prometheus:\n%s", body)
	}

	resp, body = get(t, ts.URL+"/metrics", http.Header{"Accept": {"application/openmetrics-text"}})
	if !strings.Contains(body, "# TYPE") {
		t.Fatalf("openmetrics Accept not honored:\n%s", body)
	}

	// An explicit format=json beats a text Accept header.
	resp, body = get(t, ts.URL+"/metrics?format=json", http.Header{"Accept": {"text/plain"}})
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("format=json overridden by Accept: %q", ct)
	}
}

// TestPprofOptIn: the profiling endpoints exist only when EnablePprof is
// set.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, _ := get(t, off.URL+"/debug/pprof/", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, body := get(t, on.URL+"/debug/pprof/", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, body[:min(len(body), 120)])
	}
	resp, _ = get(t, on.URL+"/debug/pprof/cmdline", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// lockedBuffer lets the server's log handler and the test goroutine share a
// buffer without a race.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogging: with a Logger configured every request produces one
// structured log line carrying the same request id the response header
// announces, and ids are unique per request.
func TestRequestLogging(t *testing.T) {
	var logs lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	_, ts := newTestServer(t, Config{Logger: logger})

	resp1, _ := get(t, ts.URL+"/healthz", nil)
	resp2, _ := get(t, ts.URL+"/metrics", nil)
	id1 := resp1.Header.Get("X-Request-Id")
	id2 := resp2.Header.Get("X-Request-Id")
	if id1 == "" || id2 == "" {
		t.Fatalf("missing X-Request-Id headers: %q, %q", id1, id2)
	}
	if id1 == id2 {
		t.Fatalf("request ids must be unique, both %q", id1)
	}

	var saw1, saw2 bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var entry struct {
			Msg    string `json:"msg"`
			ID     string `json:"id"`
			Method string `json:"method"`
			Path   string `json:"path"`
			Status int    `json:"status"`
			Bytes  int64  `json:"bytes"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if entry.Msg != "request" || entry.Method != "GET" {
			t.Fatalf("unexpected log entry: %s", line)
		}
		switch entry.ID {
		case id1:
			saw1 = true
			if entry.Path != "/healthz" || entry.Status != http.StatusOK || entry.Bytes == 0 {
				t.Fatalf("healthz entry wrong: %s", line)
			}
		case id2:
			saw2 = true
			if entry.Path != "/metrics" {
				t.Fatalf("metrics entry wrong: %s", line)
			}
		}
	}
	if !saw1 || !saw2 {
		t.Fatalf("missing log entries for %q/%q:\n%s", id1, id2, logs.String())
	}
}

// TestLoggedCompressStreams: the logging wrapper must not break the
// full-duplex streaming path (statusWriter.Unwrap keeps ResponseController
// working), and the logged byte count must match the response size.
func TestLoggedCompressStreams(t *testing.T) {
	var logs lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, nil))
	_, ts := newTestServer(t, Config{Logger: logger})

	vals := testValues32(5000)
	resp, body := post(t, ts.URL+"/v1/compress?mode=abs&bound=0.001&frame=1024", f32LE(vals))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, body)
	}
	want := serialFramed32(t, vals, pfpl.ABS, 1e-3, 1024)
	if !bytes.Equal(body, want) {
		t.Fatal("logged compress output differs from the serial reference")
	}
	id := resp.Header.Get("X-Request-Id")
	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var entry struct {
			ID    string `json:"id"`
			Bytes int64  `json:"bytes"`
		}
		if json.Unmarshal([]byte(line), &entry) == nil && entry.ID == id {
			logged = true
			if entry.Bytes != int64(len(body)) {
				t.Fatalf("logged %d bytes, response had %d", entry.Bytes, len(body))
			}
		}
	}
	if !logged {
		t.Fatalf("no log entry for compress request %q:\n%s", id, logs.String())
	}
}
