package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"pfpl"
)

func f32Body(vals []float32) []byte {
	out := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func batchVals(n int, seed float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i)*0.01 + seed))
	}
	return out
}

// TestBatchConcurrentByteIdentity: N concurrent /v1/batch requests each get
// the bytes the same field compresses to alone.
func TestBatchConcurrentByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 8
	fields := make([][]float32, n)
	for i := range fields {
		fields[i] = batchVals(1000, float64(i))
	}
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range fields {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/batch?mode=abs&bound=1e-3", f32Body(fields[i]))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("field %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			if resp.Header.Get("X-Pfpl-Digest") == "" {
				t.Errorf("field %d: missing digest header", i)
			}
			if c := resp.Header.Get("X-Pfpl-Coalesced"); c != "1" {
				t.Errorf("field %d: X-Pfpl-Coalesced = %q, want 1", i, c)
			}
			got[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range fields {
		want, err := pfpl.Compress32(fields[i], pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("field %d: response differs from pfpl.Compress32", i)
		}
	}
}

// TestBatchChecksumByteIdentity: with checksum=1 each response carries the
// same CRC trailer pfpl.Compress32 with Checksum set appends.
func TestBatchChecksumByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vals := batchVals(500, 0)
	resp, body := post(t, ts.URL+"/v1/batch?mode=abs&bound=1e-3&checksum=1", f32Body(vals))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	want, err := pfpl.Compress32(vals, pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("checksummed batch response differs from pfpl.Compress32")
	}
	if _, err := pfpl.Decompress32(body, nil, pfpl.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchBudgetExceeded: a request that cannot fit the admission budget
// gets 429 + Retry-After (or 413 when it can never fit).
func TestBatchBudgetExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflightBytes: 64})
	resp, _ := post(t, ts.URL+"/v1/batch?mode=abs&bound=1e-3", f32Body(batchVals(1000, 0)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (reservation larger than the whole budget)", resp.StatusCode)
	}

	// A budget that fits one request but not two: saturate it with a slow
	// in-flight request, then expect 429 with Retry-After.
	s2, ts2 := newTestServer(t, Config{MaxInflightBytes: 1 << 20})
	if err := s2.Admission().Acquire(1 << 20); err != nil {
		t.Fatal(err)
	}
	defer s2.Admission().Release(1<<20, time.Millisecond)
	resp2, _ := post(t, ts2.URL+"/v1/batch?mode=abs&bound=1e-3", f32Body(batchVals(1000, 0)))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestBatchCancelReleasesOnlyThatField: a request canceled while it queues
// behind a held pipeline slot hands back exactly its own admission bytes,
// and a later request still gets correct bytes.
func TestBatchCancelReleasesOnlyThatField(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	survivor := batchVals(400, 1)
	doomed := f32Body(batchVals(400, 2))

	// Hold the only slot so the doomed request queues after admission.
	s.slots <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceledErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/batch?mode=abs&bound=1e-3", bytes.NewReader(doomed))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		canceledErr <- err
	}()
	waitInflight(t, s, 2*int64(len(doomed)))
	cancel()
	if err := <-canceledErr; err == nil {
		t.Fatal("canceled request returned a response")
	}
	waitInflight(t, s, 0)
	<-s.slots

	resp, body := post(t, ts.URL+"/v1/batch?mode=abs&bound=1e-3", f32Body(survivor))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("survivor status %d: %s", resp.StatusCode, body)
	}
	want, err := pfpl.Compress32(survivor, pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("survivor response differs after a canceled request")
	}
	waitInflight(t, s, 0)
}

// waitInflight polls until the admission gate holds exactly want bytes.
func waitInflight(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight bytes %d, want %d", s.Admission().Inflight(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchBadRequests covers parameter and body validation.
func TestBatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"missing-bound", "/v1/batch?mode=abs", f32Body(batchVals(4, 0)), http.StatusBadRequest},
		{"bad-mode", "/v1/batch?mode=nope&bound=1e-3", f32Body(batchVals(4, 0)), http.StatusBadRequest},
		{"ragged-body", "/v1/batch?mode=abs&bound=1e-3", []byte{1, 2, 3}, http.StatusBadRequest},
		{"empty-ok", "/v1/batch?mode=abs&bound=1e-3", nil, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestBatchDoublePrecision exercises the f64 path end to end.
func TestBatchDoublePrecision(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = math.Cos(float64(i) * 0.02)
	}
	body := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(v))
	}
	resp, out := post(t, ts.URL+"/v1/batch?mode=abs&bound=1e-6&precision=f64", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	got, err := pfpl.Decompress64(out, nil, pfpl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := pfpl.VerifyBound64(vals, got, pfpl.ABS, 1e-6); v != 0 {
		t.Fatalf("%d bound violations", v)
	}
}
