package cpucomp

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pfpl/internal/core"
)

// forceParallel runs the test at GOMAXPROCS 8 whatever the host's core
// count, so the carry chain and the pool are exercised by goroutines that
// really run at once.
func forceParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func synth(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	a := rng.Float64()
	for i := range out {
		out[i] = float32(math.Sin(float64(i)*0.001 + a))
	}
	return out
}

func TestCarryChainManyWorkers(t *testing.T) {
	forceParallel(t)
	// Stress the shared-carry concatenation: many chunks, many workers,
	// chunk sizes that vary wildly (mixed compressible/incompressible
	// regions), repeated to shake out ordering races.
	rng := rand.New(rand.NewSource(1))
	n := 64*core.ChunkWords32 + 321
	src := make([]float32, n)
	for i := range src {
		if (i/core.ChunkWords32)%3 == 0 {
			src[i] = math.Float32frombits(rng.Uint32()&0x807FFFFF | uint32(200+rng.Intn(54))<<23)
		} else {
			src[i] = float32(math.Sin(float64(i) * 0.01))
		}
	}
	ref, err := core.CompressSerial32(src, core.ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for trial := 0; trial < 5; trial++ {
			got, err := Compress32(src, core.ABS, 1e-3, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("workers=%d trial=%d: stream differs from serial", workers, trial)
			}
		}
	}
}

func TestParallelDecompressMatchesSerial(t *testing.T) {
	forceParallel(t)
	src := synth(10*core.ChunkWords32+5, 2)
	comp, err := Compress32(src, core.REL, 1e-2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DecompressSerial32(comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := Decompress32(comp, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("workers=%d: value %d differs", workers, i)
			}
		}
	}
}

func TestParallel64(t *testing.T) {
	forceParallel(t)
	src := make([]float64, 9*core.ChunkWords64+77)
	for i := range src {
		src[i] = math.Cos(float64(i) * 0.004)
	}
	ref, err := core.CompressSerial64(src, core.NOA, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compress64(src, core.NOA, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatal("parallel f64 stream differs from serial")
	}
	dec, err := Decompress64(got, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(src) {
		t.Fatalf("got %d values", len(dec))
	}
}

func TestDecompressErrorPropagates(t *testing.T) {
	src := synth(5*core.ChunkWords32, 3)
	comp, _ := Compress32(src, core.ABS, 1e-3, 0)
	// Corrupt a payload byte in the middle; some chunk must fail and the
	// error must surface.
	comp[len(comp)-100] ^= 0xFF
	if _, err := Decompress32(comp, nil, 0); err == nil {
		// Bit flips can land in slack space; corrupt the size table too.
		comp2 := append([]byte(nil), comp...)
		comp2[44] ^= 0x7F
		if _, err2 := Decompress32(comp2, nil, 0); err2 == nil {
			t.Skip("corruption landed in insensitive bytes")
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit worker count ignored")
	}
	if Workers(0) < 1 {
		t.Error("default worker count invalid")
	}
}

func TestEmptyInputParallel(t *testing.T) {
	comp, err := Compress32(nil, core.ABS, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress32(comp, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("got %d values", len(dec))
	}
}
