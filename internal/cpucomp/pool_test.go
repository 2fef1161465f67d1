package cpucomp

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"pfpl/internal/core"
)

func poolTestData(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i)*0.001) * 100)
	}
	return out
}

// TestPoolMatchesSpawned pins the pool's bit-identity: pooled compression
// and decompression must match the per-call-spawn executor byte for byte,
// at several pool sizes, including frames smaller than one chunk.
func TestPoolMatchesSpawned(t *testing.T) {
	forceParallel(t)
	sizes := []int{0, 1, core.ChunkWords32 - 1, core.ChunkWords32 + 1, 5*core.ChunkWords32 + 321}
	for _, workers := range []int{1, 2, 0} {
		p := NewPool(workers)
		for _, n := range sizes {
			src := poolTestData(n)
			want, err := Compress32(src, core.ABS, 1e-3, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Compress32(src, core.ABS, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d n=%d: pooled stream differs from spawned", workers, n)
			}
			dec, err := core.Decompress(Exec[float32]{p}, got, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Decompress32(want, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if math.Float32bits(dec[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("workers=%d n=%d: pooled decode differs at %d", workers, n, i)
				}
			}
		}
		p.Close()
	}
}

// TestPoolConcurrentCallers drives one pool from many goroutines at once;
// every caller must get the same bytes the spawned executor produces, and
// the race detector must stay quiet.
func TestPoolConcurrentCallers(t *testing.T) {
	forceParallel(t)
	p := NewPool(0)
	defer p.Close()
	src := poolTestData(3*core.ChunkWords32 + 17)
	want, err := Compress32(src, core.REL, 1e-2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := p.Compress32(src, core.REL, 1e-2)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					t.Error("concurrent pooled stream differs from spawned")
					return
				}
				if _, err := core.Decompress(Exec[float32]{p}, got, nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolAfterClose verifies calls after Close still complete (inline,
// single-threaded) with identical output instead of hanging or panicking.
func TestPoolAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	src := poolTestData(2*core.ChunkWords64 + 5)
	src64 := make([]float64, len(src))
	for i, v := range src {
		src64[i] = float64(v)
	}
	want, err := Compress64(src64, core.NOA, 1e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Compress64(src64, core.NOA, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-Close pooled stream differs from spawned")
	}
	if _, err := core.Decompress(Exec[float64]{p}, got, nil, nil); err != nil {
		t.Fatal(err)
	}
}
