package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pfpl"
)

// testValues32 builds a signal with enough structure to compress and enough
// specials to exercise the lossless-inline paths.
func testValues32(n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/50) * 100)
	}
	if n > 10 {
		vals[3] = float32(math.NaN())
		vals[7] = float32(math.Inf(1))
	}
	return vals
}

func f32LE(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func f64LE(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// serialFramed32 is the reference encoding the served path must reproduce
// byte for byte: each frame compressed serially, length-prefixed.
func serialFramed32(t *testing.T, vals []float32, mode pfpl.Mode, bound float64, frame int) []byte {
	t.Helper()
	var out bytes.Buffer
	for lo := 0; lo < len(vals); lo += frame {
		hi := min(lo+frame, len(vals))
		comp, err := pfpl.Serial().Compress32(vals[lo:hi], mode, bound)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(comp)))
		out.Write(hdr[:])
		out.Write(comp)
	}
	return out.Bytes()
}

func serialFramed64(t *testing.T, vals []float64, mode pfpl.Mode, bound float64, frame int) []byte {
	t.Helper()
	var out bytes.Buffer
	for lo := 0; lo < len(vals); lo += frame {
		hi := min(lo+frame, len(vals))
		comp, err := pfpl.Serial().Compress64(vals[lo:hi], mode, bound)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(comp)))
		out.Write(hdr[:])
		out.Write(comp)
	}
	return out.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServeRoundTrip: for every mode × precision, the served compress
// output must be byte-identical to the serial frame-by-frame reference,
// and the served decompress of that stream byte-identical to the library
// reader's decode.
func TestServeRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const frame = 3251
	const n = 10000
	vals32 := testValues32(n)
	vals64 := make([]float64, n)
	for i, v := range vals32 {
		vals64[i] = float64(v)
	}

	cases := []struct {
		mode  string
		m     pfpl.Mode
		bound float64
	}{
		{"abs", pfpl.ABS, 1e-3},
		{"rel", pfpl.REL, 1e-2},
		{"noa", pfpl.NOA, 1e-4},
	}
	for _, tc := range cases {
		for _, double := range []bool{false, true} {
			prec := map[bool]string{false: "f32", true: "f64"}[double]
			t.Run(tc.mode+"/"+prec, func(t *testing.T) {
				var raw, wantComp []byte
				if double {
					raw = f64LE(vals64)
					wantComp = serialFramed64(t, vals64, tc.m, tc.bound, frame)
				} else {
					raw = f32LE(vals32)
					wantComp = serialFramed32(t, vals32, tc.m, tc.bound, frame)
				}

				url := fmt.Sprintf("%s/v1/compress?mode=%s&bound=%g&precision=%s&frame=%d",
					ts.URL, tc.mode, tc.bound, prec, frame)
				resp, comp := post(t, url, raw)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("compress: status %d: %s", resp.StatusCode, comp)
				}
				if !bytes.Equal(comp, wantComp) {
					t.Fatalf("served stream differs from the serial reference (%d vs %d bytes)",
						len(comp), len(wantComp))
				}

				// The served decode must equal the library reader's decode of
				// the same stream, byte for byte.
				var wantRaw []byte
				if double {
					r := pfpl.NewReader64(bytes.NewReader(comp), pfpl.Options{})
					var dec []float64
					buf := make([]float64, 1024)
					for {
						k, err := r.Read(buf)
						dec = append(dec, buf[:k]...)
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					wantRaw = f64LE(dec)
				} else {
					r := pfpl.NewReader32(bytes.NewReader(comp), pfpl.Options{})
					var dec []float32
					buf := make([]float32, 1024)
					for {
						k, err := r.Read(buf)
						dec = append(dec, buf[:k]...)
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					wantRaw = f32LE(dec)
				}
				resp, got := post(t, ts.URL+"/v1/decompress", comp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("decompress: status %d: %s", resp.StatusCode, got)
				}
				if gotPrec := resp.Header.Get("X-Pfpl-Precision"); gotPrec != prec {
					t.Fatalf("X-Pfpl-Precision = %q, want %q", gotPrec, prec)
				}
				if !bytes.Equal(got, wantRaw) {
					t.Fatalf("served decode differs from the library decode (%d vs %d bytes)",
						len(got), len(wantRaw))
				}
			})
		}
	}
}

// TestServeParamsViaHeaders: the X-Pfpl-* header fallback must behave
// exactly like query parameters.
func TestServeParamsViaHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vals := testValues32(500)
	raw := f32LE(vals)
	req, err := http.NewRequest("POST", ts.URL+"/v1/compress", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pfpl-mode", "rel")
	req.Header.Set("X-Pfpl-bound", "0.01")
	req.Header.Set("X-Pfpl-frame", "100")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	want := serialFramed32(t, vals, pfpl.REL, 0.01, 100)
	if !bytes.Equal(got, want) {
		t.Fatalf("header-parameterized stream differs from reference")
	}
}

// TestServeBadRequests: malformed parameters and bodies must answer 400
// before any stream bytes go out.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, url string
		body      []byte
	}{
		{"bad-mode", "/v1/compress?mode=quux&bound=1e-3", f32LE(testValues32(16))},
		{"missing-bound", "/v1/compress?mode=abs", f32LE(testValues32(16))},
		{"negative-bound", "/v1/compress?mode=abs&bound=-1", f32LE(testValues32(16))},
		{"bad-precision", "/v1/compress?bound=1e-3&precision=f16", f32LE(testValues32(16))},
		{"bad-frame", "/v1/compress?bound=1e-3&frame=-2", f32LE(testValues32(16))},
		{"huge-frame", "/v1/compress?bound=1e-3&frame=999999999", f32LE(testValues32(16))},
		{"ragged-body", "/v1/compress?bound=1e-3", []byte{1, 2, 3}},
		{"decompress-garbage", "/v1/decompress", []byte("this is not a pfpl stream at all")},
		{"decompress-empty", "/v1/decompress", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
		})
	}
}

// blockingBody streams a few bytes and then blocks until released — a
// client that is mid-upload for as long as the test needs.
type blockingBody struct {
	first   []byte
	release chan struct{}
	once    sync.Once
}

func (b *blockingBody) Read(p []byte) (int, error) {
	if len(b.first) > 0 {
		n := copy(p, b.first)
		b.first = b.first[n:]
		return n, nil
	}
	<-b.release
	return 0, io.EOF
}

func (b *blockingBody) Close() error {
	b.once.Do(func() { close(b.release) })
	return nil
}

// TestServeSaturation429: with the byte budget sized for exactly one
// request, a second concurrent request is shed with 429 and a positive
// integer Retry-After, and admission drains back to zero afterwards.
func TestServeSaturation429(t *testing.T) {
	const frame = 1000
	reserve := int64(3 * frame * 4)
	s, ts := newTestServer(t, Config{MaxInflightBytes: reserve})

	hold := &blockingBody{first: f32LE(testValues32(8)), release: make(chan struct{})}
	defer hold.Close()
	url := fmt.Sprintf("%s/v1/compress?bound=1e-3&frame=%d", ts.URL, frame)
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequest("POST", url, hold)
		if err != nil {
			done <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- nil
	}()

	// Wait until the first request holds its reservation.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired its reservation")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, url, f32LE(testValues32(frame)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count",
			resp.Header.Get("Retry-After"))
	}

	// A request that can never fit is rejected as such, not asked to retry.
	// (The body must carry more than a third of the budget, or the
	// Content-Length shrink makes the reservation admittable.)
	bigURL := fmt.Sprintf("%s/v1/compress?bound=1e-3&frame=%d", ts.URL, frame*10)
	resp, _ = post(t, bigURL, f32LE(testValues32(frame*5)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget request: status %d, want 413", resp.StatusCode)
	}

	hold.Close()
	if err := <-done; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	for s.Admission().Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("budget never drained: %d bytes still reserved", s.Admission().Inflight())
		}
		time.Sleep(time.Millisecond)
	}

	// With the budget empty again a normal request sails through.
	resp, _ = post(t, url, f32LE(testValues32(frame)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: status %d, want 200", resp.StatusCode)
	}
}

// TestServeCanceledClientReleasesSlot: with a single pipeline slot, a
// client that disconnects mid-upload must free the slot for the next
// request.
func TestServeCanceledClientReleasesSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	url := ts.URL + "/v1/compress?bound=1e-3&frame=100"

	hold := &blockingBody{first: f32LE(testValues32(8)), release: make(chan struct{})}
	defer hold.Close()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, "POST", url, hold)
		if err != nil {
			t.Error(err)
			return
		}
		started <- struct{}{}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			// The server may have aborted the stream instead; either way the
			// request is over.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the handler occupy the slot
	cancel()
	// Unblock the body too: the transport's write loop cannot be
	// interrupted while it is inside a blocked body Read.
	hold.Close()
	<-done

	// The slot must come back: a fresh request completes promptly.
	ok := make(chan int, 1)
	go func() {
		resp, _ := post(t, url, f32LE(testValues32(500)))
		ok <- resp.StatusCode
	}()
	select {
	case code := <-ok:
		if code != http.StatusOK {
			t.Fatalf("follow-up request: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slot was not released after client cancellation")
	}
}

// TestServeGracefulDrain: Shutdown must let an in-flight request finish
// and deliver its complete, decodable stream.
func TestServeGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const frame = 500
	vals := testValues32(2000)
	raw := f32LE(vals)

	hold := &blockingBody{first: raw, release: make(chan struct{})}
	url := fmt.Sprintf("%s/v1/compress?bound=1e-3&frame=%d", ts.URL, frame)
	type result struct {
		code int
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		req, err := http.NewRequest("POST", url, hold)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		resCh <- result{code: resp.StatusCode, body: body, err: err}
	}()

	// Give the handler time to start consuming, then begin the drain while
	// the request is still open.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.SetDraining()
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- ts.Config.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	hold.Close() // the client finishes its upload mid-drain

	res := <-resCh
	if res.err != nil || res.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: code %d err %v", res.code, res.err)
	}
	want := serialFramed32(t, vals, pfpl.ABS, 1e-3, frame)
	if !bytes.Equal(res.body, want) {
		t.Fatalf("drained request delivered a wrong stream (%d vs %d bytes)", len(res.body), len(want))
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestServeHealthzAndMetrics: healthz flips from 200 to 503 on drain, and
// /metrics serves the registry with the per-route outcome table in place —
// and only that table's routes — after a compress and a chunked decompress.
func TestServeHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	// One successful compress, then the counters must show it.
	raw := f32LE(testValues32(100))
	resp, comp := post(t, ts.URL+"/v1/compress?bound=1e-3", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d: %s", resp.StatusCode, comp)
	}
	// A reader of unknown length makes the client send the body chunked,
	// with no Content-Length: bytes.in must count the bytes consumed.
	resp, err = http.Post(ts.URL+"/v1/decompress", "application/octet-stream",
		io.MultiReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked decompress: status %d", resp.StatusCode)
	}
	resp, metricsBody := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`"route.compress.ok": 1`,
		`"route.decompress.ok": 1`,
		`"route.compress.latency_ns"`,
		`"ratio.compress"`,
	} {
		if !bytes.Contains(metricsBody, []byte(want)) {
			t.Fatalf("metrics output missing %q:\n%s", want, metricsBody)
		}
	}
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(metricsBody, &flat); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	for name := range flat {
		route, isRoute := strings.CutPrefix(name, "route.")
		served := false
		for _, r := range routeNames[:numServedRoutes] {
			served = served || strings.HasPrefix(route, r+".")
		}
		if strings.HasPrefix(name, "requests.") || strings.HasPrefix(name, "latency_ns.") ||
			name == "cache.frames.rejected" || (isRoute && !served) {
			t.Errorf("/metrics lists %q, which nothing should feed", name)
		}
	}
	if got := s.Metrics().Counter("route.compress.ok").Value(); got != 1 {
		t.Fatalf("registry counter = %d, want 1", got)
	}
	if got, want := s.Metrics().Counter("bytes.in").Value(), int64(len(raw)+len(comp)); got != want {
		t.Fatalf("bytes.in = %d, want %d (compress body + chunked decompress body)", got, want)
	}

	s.SetDraining()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
}

// trickleBody yields one float32 per read with a delay, so an upload takes
// arbitrarily long while the handler keeps getting scheduling points.
type trickleBody struct{ delay time.Duration }

func (b *trickleBody) Read(p []byte) (int, error) {
	time.Sleep(b.delay)
	return copy(p, []byte{0, 0, 128, 63}), nil // 1.0f forever
}

// TestServeRequestTimeout: a configured deadline shorter than the upload
// must cancel the pipeline rather than hang the request.
func TestServeRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	req, err := http.NewRequest("POST", ts.URL+"/v1/compress?bound=1e-3&frame=100",
		&trickleBody{delay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return // the server aborted the connection: also an acceptable end
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("timed-out request reported a complete 200 stream")
	}
}
