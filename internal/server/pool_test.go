package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pfpl"
)

// poolCase is one precision × frame size: the raw input, the framed stream
// every path must produce, and the raw little-endian decode.
type poolCase struct {
	name    string
	prec    string
	frame   int
	raw     []byte
	framed  []byte
	decoded []byte
	// stream compresses the values through a pfpl stream writer with the
	// given worker count; read decodes a stream through a pfpl stream reader.
	stream func(t *testing.T, workers int) []byte
	read   func(t *testing.T, framed []byte) []byte
}

// framedRef frames each frame-sized slice of vals through compress, and
// decodes each frame through decompress.
func framedRef[T float32 | float64](t *testing.T, vals []T, frame int,
	compress func([]T, pfpl.Options) ([]byte, error),
	decompress func([]byte, []T, pfpl.Options) ([]T, error)) (framed, decoded []byte) {
	t.Helper()
	var out, dec bytes.Buffer
	opts := pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3, Device: pfpl.Serial()}
	for lo := 0; lo < len(vals); lo += frame {
		comp, err := compress(vals[lo:min(lo+frame, len(vals))], opts)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(comp))))
		out.Write(comp)
		got, err := decompress(comp, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, len(got)*elemSize[T]())
		putLE(b, got)
		dec.Write(b)
	}
	return out.Bytes(), dec.Bytes()
}

// streamPath runs vals through a pfpl stream writer, writing in uneven
// slices so frames straddle write calls.
func streamPath[T float32 | float64, W interface {
	Write([]T) error
	Close() error
}](t *testing.T, vals []T, frame, workers int, newWriter func(io.Writer, pfpl.Options, pfpl.StreamOptions) (W, error)) []byte {
	var out bytes.Buffer
	w, err := newWriter(&out, pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3},
		pfpl.StreamOptions{Concurrency: workers, FrameValues: frame})
	if err != nil {
		t.Error(err)
		return nil
	}
	for lo := 0; lo < len(vals); lo += 777 {
		if err := w.Write(vals[lo:min(lo+777, len(vals))]); err != nil {
			t.Error(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Error(err)
	}
	return out.Bytes()
}

// readPath decodes a framed stream through a pfpl stream reader into raw
// little-endian bytes, reading in uneven slices.
func readPath[T float32 | float64](t *testing.T, rd interface{ Read([]T) (int, error) }) []byte {
	var out bytes.Buffer
	buf := make([]T, 1001)
	b := make([]byte, len(buf)*elemSize[T]())
	for {
		n, err := rd.Read(buf)
		putLE(b, buf[:n])
		out.Write(b[:n*elemSize[T]()])
		if err == io.EOF {
			return out.Bytes()
		}
		if err != nil {
			t.Error(err)
			return nil
		}
	}
}

// TestPoolReuseAcrossStreamsAndRequests runs stream writers, stream readers
// and served requests concurrently over both precisions and two frame
// sizes, each goroutine following a small frame with a larger one, so the
// process-wide pools hand buffers across precisions' streams, requests and
// frame sizes, and a recycled buffer too small for the frame at hand must be
// refused. Every output must equal the frame-by-frame pfpl.Compress*
// reference, the serial stream writer, and the pfpl.Decompress* decode.
func TestPoolReuseAcrossStreamsAndRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const n = 20000
	vals32 := testValues32(n)
	vals64 := make([]float64, n)
	for i, v := range vals32 {
		vals64[i] = float64(v) * 1.5
	}

	var cases []poolCase
	for _, frame := range []int{1500, 6000} { // smaller first
		c32 := poolCase{name: fmt.Sprintf("f32/frame=%d", frame), prec: "f32", frame: frame, raw: f32LE(vals32),
			stream: func(t *testing.T, workers int) []byte {
				return streamPath(t, vals32, frame, workers, pfpl.NewWriter32)
			},
			read: func(t *testing.T, framed []byte) []byte {
				return readPath[float32](t, pfpl.NewReader32(bytes.NewReader(framed), pfpl.Options{}))
			}}
		c32.framed, c32.decoded = framedRef(t, vals32, frame, pfpl.Compress32, pfpl.Decompress32)
		c64 := poolCase{name: fmt.Sprintf("f64/frame=%d", frame), prec: "f64", frame: frame, raw: f64LE(vals64),
			stream: func(t *testing.T, workers int) []byte {
				return streamPath(t, vals64, frame, workers, pfpl.NewWriter64)
			},
			read: func(t *testing.T, framed []byte) []byte {
				return readPath[float64](t, pfpl.NewReader64(bytes.NewReader(framed), pfpl.Options{}))
			}}
		c64.framed, c64.decoded = framedRef(t, vals64, frame, pfpl.Compress64, pfpl.Decompress64)
		cases = append(cases, c32, c64)
	}
	// The serial stream writer agrees with the frame-by-frame reference
	// before any concurrency is involved.
	for _, c := range cases {
		if got := c.stream(t, 1); !bytes.Equal(got, c.framed) {
			t.Fatalf("%s: serial stream writer differs from pfpl.Compress frames", c.name)
		}
	}

	serve := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cases {
					// Rotate the start so the goroutines run different
					// cases at once; each still follows a small frame with
					// a larger one.
					c := cases[(i+2*g)%len(cases)]
					if got := c.stream(t, 1+(g+r)%3); !bytes.Equal(got, c.framed) {
						t.Errorf("%s: stream writer output differs", c.name)
					}
					if got := c.read(t, c.framed); !bytes.Equal(got, c.decoded) {
						t.Errorf("%s: stream reader decode differs", c.name)
					}
					path := fmt.Sprintf("/v1/compress?mode=abs&bound=0.001&precision=%s&frame=%d", c.prec, c.frame)
					if got := serve(path, c.raw); !bytes.Equal(got, c.framed) {
						t.Errorf("%s: served compress differs", c.name)
					}
					path = fmt.Sprintf("/v1/decompress?frame=%d", c.frame)
					if got := serve(path, c.framed); !bytes.Equal(got, c.decoded) {
						t.Errorf("%s: served decompress differs", c.name)
					}
				}
			}
		}()
	}
	wg.Wait()
}
