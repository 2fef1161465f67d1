package pfpl

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func synth32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	a, b := rng.Float64(), rng.Float64()
	for i := range out {
		x := float64(i) * 0.002
		out[i] = float32(math.Sin(x+a)*2 + math.Cos(5*x+b))
	}
	return out
}

func synth64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	a := rng.Float64()
	for i := range out {
		x := float64(i) * 0.002
		out[i] = math.Sin(x+a)*2 + math.Cos(5*x)
	}
	return out
}

func TestPublicRoundtrip32(t *testing.T) {
	src := synth32(100000, 1)
	for _, mode := range []Mode{ABS, REL, NOA} {
		comp, err := Compress32(src, Options{Mode: mode, Bound: 1e-3})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		dec, err := Decompress32(comp, nil, Options{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(dec) != len(src) {
			t.Fatalf("%v: length %d, want %d", mode, len(dec), len(src))
		}
		info, err := Stat(comp)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != mode || info.Count != len(src) || info.Double {
			t.Errorf("%v: bad info %+v", mode, info)
		}
	}
}

func TestPublicRoundtrip64(t *testing.T) {
	src := synth64(50000, 2)
	comp, err := Compress64(src, Options{Mode: ABS, Bound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress64(comp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if d := math.Abs(src[i] - dec[i]); d > 1e-4 {
			t.Fatalf("value %d: error %g", i, d)
		}
	}
}

func TestDeviceBitCompatibility(t *testing.T) {
	// The paper's headline property: all devices produce identical bytes
	// and identical reconstructions.
	devices := []Device{Serial(), CPU(0), CPU(1), CPU(3)}
	src := synth32(3*16384+777, 3)
	for _, mode := range []Mode{ABS, REL, NOA} {
		var ref []byte
		for _, d := range devices {
			comp, err := d.Compress32(src, mode, 1e-2)
			if err != nil {
				t.Fatalf("%s %v: %v", d.Name(), mode, err)
			}
			if ref == nil {
				ref = comp
				continue
			}
			if !bytes.Equal(comp, ref) {
				t.Fatalf("%s %v: compressed stream differs from serial reference", d.Name(), mode)
			}
		}
		// Cross-device decompression: serial-compressed, each device decodes.
		var refDec []float32
		for _, d := range devices {
			dec, err := d.Decompress32(ref, nil)
			if err != nil {
				t.Fatalf("%s %v: %v", d.Name(), mode, err)
			}
			if refDec == nil {
				refDec = dec
				continue
			}
			for i := range dec {
				if math.Float32bits(dec[i]) != math.Float32bits(refDec[i]) {
					t.Fatalf("%s %v: value %d decodes differently", d.Name(), mode, i)
				}
			}
		}
	}
}

func TestDeviceBitCompatibility64(t *testing.T) {
	devices := []Device{Serial(), CPU(0), CPU(2)}
	src := synth64(5*2048+99, 4)
	for _, mode := range []Mode{ABS, REL, NOA} {
		var ref []byte
		for _, d := range devices {
			comp, err := d.Compress64(src, mode, 1e-3)
			if err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
			if ref == nil {
				ref = comp
			} else if !bytes.Equal(comp, ref) {
				t.Fatalf("%s %v: stream differs", d.Name(), mode)
			}
		}
	}
}

func TestBadOptions(t *testing.T) {
	src := synth32(100, 5)
	if _, err := Compress32(src, Options{Mode: ABS, Bound: 0}); !errors.Is(err, ErrBadBound) {
		t.Errorf("zero bound: %v", err)
	}
	if _, err := Compress32(src, Options{Mode: ABS, Bound: -1}); !errors.Is(err, ErrBadBound) {
		t.Errorf("negative bound: %v", err)
	}
	if _, err := Compress32(src, Options{Mode: ABS, Bound: 1e-40}); !errors.Is(err, ErrBoundSmall) {
		t.Errorf("tiny ABS bound: %v", err)
	}
	if _, err := Decompress32([]byte("nonsense"), nil, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage stream: %v", err)
	}
	// A double stream must be rejected by the 32-bit decoder and vice versa.
	c64, err := Compress64(synth64(100, 6), Options{Mode: ABS, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress32(c64, nil, Options{}); err == nil {
		t.Error("float64 stream accepted by Decompress32")
	}
	c32, err := Compress32(src, Options{Mode: ABS, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress64(c32, nil, Options{}); err == nil {
		t.Error("float32 stream accepted by Decompress64")
	}
}

func TestParallelMatchesSerialManySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 20; iter++ {
		n := rng.Intn(200000)
		src := synth32(n, int64(iter))
		a, err := Serial().Compress32(src, ABS, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CPU(0).Compress32(src, ABS, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("n=%d: parallel differs from serial", n)
		}
	}
}

func TestNOARangeRecordedInStream(t *testing.T) {
	src := []float32{-2, 0, 6} // range 8
	comp, err := Compress32(src, Options{Mode: NOA, Bound: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Stat(comp)
	if err != nil {
		t.Fatal(err)
	}
	if info.NOARange != 8 {
		t.Errorf("recorded range %g, want 8", info.NOARange)
	}
	dec, err := Decompress32(comp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if d := math.Abs(float64(src[i] - dec[i])); d > 0.01*8 {
			t.Errorf("value %d error %g exceeds 0.08", i, d)
		}
	}
}

// TestDecompressReusesDstAllDevices pins dst reuse on every built-in
// device: a dst with enough capacity must be decoded into in place, not
// replaced by a fresh allocation (the field benchmarks reuse dst, so both
// their throughput and their memory peak depend on it).
func TestDecompressReusesDstAllDevices(t *testing.T) {
	pool := NewCPUPool(2)
	defer pool.Close()
	devs := []Device{Serial(), CPU(1), CPU(4), pool, GPU(RTX4090)}
	if CPU(4).Name() != "PFPL-CPU" || pool.Name() != "PFPL-CPU-Pool" {
		t.Errorf("CPU device names %q, %q", CPU(4).Name(), pool.Name())
	}
	src32 := synth32(3*4096+17, 11)
	src64 := synth64(3*2048+17, 12)
	comp32, err := Compress32(src32, Options{Mode: ABS, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	comp64, err := Compress64(src64, Options{Mode: ABS, Bound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range devs {
		dst32 := make([]float32, len(src32)+5)
		got32, err := Decompress32(comp32, dst32, Options{Device: dev})
		if err != nil {
			t.Fatalf("%s f32: %v", dev.Name(), err)
		}
		if len(got32) != len(src32) || &got32[0] != &dst32[0] {
			t.Errorf("%s f32: result does not share dst's backing array", dev.Name())
		}
		dst64 := make([]float64, len(src64))
		got64, err := Decompress64(comp64, dst64, Options{Device: dev})
		if err != nil {
			t.Fatalf("%s f64: %v", dev.Name(), err)
		}
		if len(got64) != len(src64) || &got64[0] != &dst64[0] {
			t.Errorf("%s f64: result does not share dst's backing array", dev.Name())
		}
	}
}
