package cpucomp

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"pfpl/internal/core"
)

// Chunk-edge and worker-count coverage: the parallel encoder must be
// byte-equal to the serial encoder at every size where chunk arithmetic can
// go wrong — empty input, a single element, and inputs exactly at, one
// below, and one above the 16 kB chunk boundary — at worker counts from 1 to
// far more workers than chunks.

func edgeSizes(perChunk int) []int {
	return []int{
		0, 1, 2,
		perChunk - 1, perChunk, perChunk + 1,
		2*perChunk - 1, 2 * perChunk, 2*perChunk + 1,
		5*perChunk + perChunk/3,
	}
}

var edgeWorkers = []int{1, 2, 7, 64, 0} // 0 = GOMAXPROCS

func TestChunkEdges32(t *testing.T) {
	forceParallel(t)
	for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
		for _, n := range edgeSizes(core.ChunkWords32) {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(math.Sin(float64(i)*0.003)) * 17
			}
			ref, err := core.CompressSerial32(src, mode, 1e-3)
			if err != nil {
				t.Fatalf("mode=%v n=%d serial: %v", mode, n, err)
			}
			refDec, err := core.DecompressSerial32(ref, nil)
			if err != nil {
				t.Fatalf("mode=%v n=%d serial decode: %v", mode, n, err)
			}
			for _, w := range edgeWorkers {
				got, err := Compress32(src, mode, 1e-3, w)
				if err != nil {
					t.Fatalf("mode=%v n=%d workers=%d: %v", mode, n, w, err)
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("mode=%v n=%d workers=%d: stream differs from serial", mode, n, w)
				}
				dec, err := Decompress32(got, nil, w)
				if err != nil {
					t.Fatalf("mode=%v n=%d workers=%d decode: %v", mode, n, w, err)
				}
				if len(dec) != n {
					t.Fatalf("mode=%v n=%d workers=%d: decoded %d values", mode, n, w, len(dec))
				}
				for i := range dec {
					if math.Float32bits(dec[i]) != math.Float32bits(refDec[i]) {
						t.Fatalf("mode=%v n=%d workers=%d: value %d differs from serial decode", mode, n, w, i)
					}
				}
			}
		}
	}
}

func TestChunkEdges64(t *testing.T) {
	forceParallel(t)
	for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
		for _, n := range edgeSizes(core.ChunkWords64) {
			src := make([]float64, n)
			for i := range src {
				src[i] = math.Cos(float64(i)*0.007) * 0.4
			}
			ref, err := core.CompressSerial64(src, mode, 1e-3)
			if err != nil {
				t.Fatalf("mode=%v n=%d serial: %v", mode, n, err)
			}
			refDec, err := core.DecompressSerial64(ref, nil)
			if err != nil {
				t.Fatalf("mode=%v n=%d serial decode: %v", mode, n, err)
			}
			for _, w := range edgeWorkers {
				got, err := Compress64(src, mode, 1e-3, w)
				if err != nil {
					t.Fatalf("mode=%v n=%d workers=%d: %v", mode, n, w, err)
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("mode=%v n=%d workers=%d: stream differs from serial", mode, n, w)
				}
				dec, err := Decompress64(got, nil, w)
				if err != nil {
					t.Fatalf("mode=%v n=%d workers=%d decode: %v", mode, n, w, err)
				}
				if len(dec) != n {
					t.Fatalf("mode=%v n=%d workers=%d: decoded %d values", mode, n, w, len(dec))
				}
				for i := range dec {
					if math.Float64bits(dec[i]) != math.Float64bits(refDec[i]) {
						t.Fatalf("mode=%v n=%d workers=%d: value %d differs from serial decode", mode, n, w, i)
					}
				}
			}
		}
	}
}

// TestWorkersSemantics pins the documented Workers contract: positive
// requests are honored exactly, zero and negative requests resolve to
// GOMAXPROCS.
func TestWorkersSemantics(t *testing.T) {
	for _, req := range []int{1, 2, 7, 1024} {
		if got := Workers(req); got != req {
			t.Errorf("Workers(%d) = %d", req, got)
		}
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestSingleElementParallel isolates the minimal non-empty input: one chunk
// of one value through the full carry chain.
func TestSingleElementParallel(t *testing.T) {
	for _, w := range edgeWorkers {
		comp, err := Compress32([]float32{math.Pi}, core.ABS, 1e-3, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		ref, _ := core.CompressSerial32([]float32{math.Pi}, core.ABS, 1e-3)
		if !bytes.Equal(comp, ref) {
			t.Fatalf("workers=%d: single-element stream differs from serial", w)
		}
		dec, err := Decompress32(comp, nil, w)
		if err != nil {
			t.Fatalf("workers=%d decode: %v", w, err)
		}
		if len(dec) != 1 || math.Abs(float64(dec[0])-math.Pi) > 1e-3 {
			t.Fatalf("workers=%d: bad reconstruction %v", w, dec)
		}
	}
}
