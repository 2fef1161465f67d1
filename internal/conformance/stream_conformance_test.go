package conformance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pfpl"
)

// streamFrameValues is the frame size used for the streamed golden vectors:
// deliberately off both chunk boundaries (4096 f32 / 2048 f64 per chunk) so
// frames contain ragged final chunks, and small enough that every
// multi-chunk corpus entry spans several frames.
const streamFrameValues = 3251

// goldenStreamPath pins the framed streaming format next to the container
// golden vectors.
const goldenStreamPath = "../../testdata/conformance/golden_stream.txt"

// streamWorkerCounts is the pipelined-writer sweep; 0 means GOMAXPROCS.
// The serial frame-by-frame reference is built without the pipeline at all.
var streamWorkerCounts = []int{1, 2, 7, 0}

// serialFramed32 is the streaming reference encoding: every frame
// compressed by the serial executor on this goroutine, emitted with its
// length prefix. The pipelined writer must reproduce these bytes for every
// worker count.
func serialFramed32(t testing.TB, vals []float32, cfg Config) []byte {
	t.Helper()
	var out bytes.Buffer
	for lo := 0; lo < len(vals); lo += streamFrameValues {
		hi := min(lo+streamFrameValues, len(vals))
		comp, err := pfpl.Serial().Compress32(vals[lo:hi], cfg.Mode, cfg.Bound)
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

func serialFramed64(t testing.TB, vals []float64, cfg Config) []byte {
	t.Helper()
	var out bytes.Buffer
	for lo := 0; lo < len(vals); lo += streamFrameValues {
		hi := min(lo+streamFrameValues, len(vals))
		comp, err := pfpl.Serial().Compress64(vals[lo:hi], cfg.Mode, cfg.Bound)
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

// TestStreamGoldenVectors pins the framed streaming format: the SHA-256 of
// the serial frame-by-frame stream for every corpus entry × config ×
// precision is compared against checked-in vectors. Regenerate (full
// corpus required) with:
//
//	go test ./internal/conformance -run TestStreamGoldenVectors -update
func TestStreamGoldenVectors(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full corpus; rerun without -short")
	}
	got := map[string]string{}
	var keys []string
	for _, e := range Corpus() {
		if testing.Short() && e.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			k32 := e.Name + "/" + cfg.Name() + "/f32"
			got[k32] = hashBytes(serialFramed32(t, e.F32, cfg))
			k64 := e.Name + "/" + cfg.Name() + "/f64"
			got[k64] = hashBytes(serialFramed64(t, e.F64, cfg))
			keys = append(keys, k32, k64)
		}
	}

	if *update {
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# PFPL golden streaming vectors: sha256 of the framed stream\n")
		fmt.Fprintf(&b, "# (serial writer, %d values per frame).\n", streamFrameValues)
		b.WriteString("# Regenerate: go test ./internal/conformance -run TestStreamGoldenVectors -update\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenStreamPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStreamPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden stream vectors to %s", len(keys), goldenStreamPath)
		return
	}

	f, err := os.Open(goldenStreamPath)
	if err != nil {
		t.Fatalf("golden stream vectors missing (%v); regenerate with -update", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("malformed golden stream line: %q", line)
		}
		want[parts[0]] = parts[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no golden stream vector; new corpus entry? rerun with -update", k)
			continue
		}
		if got[k] != w {
			t.Errorf("%s: STREAMED FORMAT CHANGED (digest %s, golden %s); "+
				"previously written streams can no longer be decoded — fix the regression or rerun with -update",
				k, got[k][:12], w[:12])
		}
	}
	if !testing.Short() {
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: stale golden stream vector; rerun with -update", k)
			}
		}
	}
}

// TestStreamPipelinedMatchesSerial is the streaming differential sweep: for
// every corpus entry × config × precision, the pipelined writer must emit
// bytes identical to the serial frame-by-frame reference at every worker
// count, and the read-ahead reader must reproduce the serial per-frame
// decode bit for bit.
func TestStreamPipelinedMatchesSerial(t *testing.T) {
	forceParallel(t)
	for _, e := range Corpus() {
		if testing.Short() && e.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			e, cfg := e, cfg
			t.Run(e.Name+"/"+cfg.Name(), func(t *testing.T) {
				t.Parallel()
				streamSweep(t, e, cfg)
			})
		}
	}
}

func streamSweep(t *testing.T, e Entry, cfg Config) {
	ref32 := serialFramed32(t, e.F32, cfg)
	ref64 := serialFramed64(t, e.F64, cfg)
	opts := pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound}
	counts := streamWorkerCounts
	if testing.Short() {
		counts = []int{2, 0}
	}
	for _, wk := range counts {
		sopts := pfpl.StreamOptions{Concurrency: wk, FrameValues: streamFrameValues}
		var sink32 bytes.Buffer
		w32, err := pfpl.NewWriter32(&sink32, opts, sopts)
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if err := w32.Write(e.F32); err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if err := w32.Close(); err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if !bytes.Equal(sink32.Bytes(), ref32) {
			t.Fatalf("workers=%d/f32: pipelined stream differs from serial (%d vs %d bytes, first diff %d)",
				wk, sink32.Len(), len(ref32), firstDiff(sink32.Bytes(), ref32))
		}

		var sink64 bytes.Buffer
		w64, err := pfpl.NewWriter64(&sink64, opts, sopts)
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if err := w64.Write(e.F64); err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if err := w64.Close(); err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if !bytes.Equal(sink64.Bytes(), ref64) {
			t.Fatalf("workers=%d/f64: pipelined stream differs from serial (%d vs %d bytes, first diff %d)",
				wk, sink64.Len(), len(ref64), firstDiff(sink64.Bytes(), ref64))
		}
	}

	// Read-ahead reader must match the serial per-frame decode bit for bit.
	wantDec := serialDecodeFrames32(t, ref32)
	gotDec := readAll32(t, ref32)
	if i := firstDiff32(gotDec, wantDec); i >= 0 {
		t.Fatalf("reader decode differs from serial per-frame decode at element %d", i)
	}
	wantDec64 := serialDecodeFrames64(t, ref64)
	gotDec64 := readAll64(t, ref64)
	if i := firstDiff64(gotDec64, wantDec64); i >= 0 {
		t.Fatalf("reader64 decode differs from serial per-frame decode at element %d", i)
	}
}

func serialDecodeFrames32(t *testing.T, stream []byte) []float32 {
	t.Helper()
	var out []float32
	for off := 0; off < len(stream); {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		frame := stream[off+4 : off+4+n]
		vals, err := pfpl.Serial().Decompress32(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vals...)
		off += 4 + n
	}
	return out
}

func serialDecodeFrames64(t *testing.T, stream []byte) []float64 {
	t.Helper()
	var out []float64
	for off := 0; off < len(stream); {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		frame := stream[off+4 : off+4+n]
		vals, err := pfpl.Serial().Decompress64(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, vals...)
		off += 4 + n
	}
	return out
}

func readAll32(t *testing.T, stream []byte) []float32 {
	t.Helper()
	r := pfpl.NewReader32(bytes.NewReader(stream), pfpl.Options{})
	var out []float32
	buf := make([]float32, 1777)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func readAll64(t *testing.T, stream []byte) []float64 {
	t.Helper()
	r := pfpl.NewReader64(bytes.NewReader(stream), pfpl.Options{})
	var out []float64
	buf := make([]float64, 1777)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
