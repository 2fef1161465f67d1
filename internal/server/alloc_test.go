//go:build !race

// The race detector drops pooled items on purpose, so an allocation budget
// that counts on recycled scratch only holds without it.

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"pfpl"
)

// discardResponse is a ResponseWriter that drops the body and keeps the
// status.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header { return d.h }

func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

func (d *discardResponse) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

// TestServeAllocBudget bounds the bytes a warm 1 MiB f32 request allocates
// through ServeHTTP. The frame value buffers, the handlers' scratch and the
// executor's kernel scratch are recycled across requests, so what remains
// is the executor's worst-case output buffer on compress (one raw frame)
// and small per-request state. Like testing.AllocsPerRun, the measurement
// runs at GOMAXPROCS 1: with more Ps, a collection can strand a pooled
// frame buffer in another P's private slot, and the count then depends on
// the host's core count rather than on the code path.
func TestServeAllocBudget(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 1 << 18 // 1 MiB of f32: one default server frame
	vals := testValues32(n)
	raw := f32LE(vals)
	const bound = 1e-3
	comp := serialFramed32(t, vals, pfpl.ABS, bound, DefaultFrameValues)

	cases := []struct {
		name, path string
		body       []byte
		budget     uint64
	}{
		{"compress", "/v1/compress?mode=abs&bound=0.001&precision=f32", raw, 1152 << 10},
		{"decompress", "/v1/decompress", comp, 128 << 10},
	}
	for _, tc := range cases {
		serve := func() {
			w := &discardResponse{h: http.Header{}}
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, w.code)
			}
		}
		for i := 0; i < 4; i++ { // warm the pools
			serve()
		}
		const reqs = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reqs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / reqs
		t.Logf("%s: %d KB allocated per request", tc.name, per>>10)
		if per > tc.budget {
			t.Errorf("%s: %d KB allocated per warm request, budget %d KB", tc.name, per>>10, tc.budget>>10)
		}
	}
}
