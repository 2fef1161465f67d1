package gpusim

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pfpl/internal/core"
)

// forceParallel runs the test at GOMAXPROCS 8 whatever the host's core
// count: the grid runs blocks serially at GOMAXPROCS 1, which once hid a
// look-back race for many releases.
func forceParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestBlockExclusiveScanInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 255, 256, 1000} {
		v := make([]int, n)
		want := make([]int, n)
		sum := 0
		for i := range v {
			v[i] = rng.Intn(100)
			want[i] = sum
			sum += v[i]
		}
		total := BlockExclusiveScan(v)
		if total != sum {
			t.Fatalf("n=%d: total %d, want %d", n, total, sum)
		}
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d: scan[%d] = %d, want %d", n, i, v[i], want[i])
			}
		}
	}
}

func TestBlockInclusiveScanU32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 32, 33, 4096} {
		v := make([]uint32, n)
		want := make([]uint32, n)
		var sum uint32
		for i := range v {
			v[i] = rng.Uint32()
			sum += v[i]
			want[i] = sum
		}
		BlockInclusiveScan(v)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d: scan[%d] = %d, want %d", n, i, v[i], want[i])
			}
		}
	}
}

func TestBlockInclusiveScanU64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 100, 2048} {
		v := make([]uint64, n)
		want := make([]uint64, n)
		var sum uint64
		for i := range v {
			v[i] = rng.Uint64()
			sum += v[i]
			want[i] = sum
		}
		BlockInclusiveScan(v)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d: scan[%d] mismatch", n, i)
			}
		}
	}
}

func TestLookbackMatchesSerialPrefix(t *testing.T) {
	forceParallel(t)
	// Hammer the decoupled look-back with concurrent publishers arriving
	// in increasing assignment order, as Grid guarantees.
	const n = 500
	rng := rand.New(rand.NewSource(4))
	agg := make([]int64, n)
	want := make([]int64, n)
	var sum int64
	for i := range agg {
		agg[i] = int64(rng.Intn(1000))
		want[i] = sum
		sum += agg[i]
	}
	for trial := 0; trial < 20; trial++ {
		lb := NewLookback(n)
		got := make([]int64, n)
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomicAdd(&next)) - 1
					if i >= n {
						return
					}
					got[i] = lb.ExclusivePrefix(i, agg[i])
				}
			}()
		}
		wg.Wait()
		if lb.Total() != sum {
			t.Fatalf("trial %d: total %d, want %d", trial, lb.Total(), sum)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: prefix[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestStripeCoversAll(t *testing.T) {
	for _, total := range []int{0, 1, 7, 255, 256, 1000} {
		for _, threads := range []int{1, 3, 32, 256} {
			covered := 0
			prevHi := 0
			for tt := 0; tt < threads; tt++ {
				lo, hi := stripe(total, threads, tt)
				if lo != prevHi && lo < total {
					t.Fatalf("total=%d threads=%d t=%d: gap %d..%d", total, threads, tt, prevHi, lo)
				}
				if lo < hi {
					covered += hi - lo
					prevHi = hi
				}
			}
			if covered != total {
				t.Fatalf("total=%d threads=%d: covered %d", total, threads, covered)
			}
		}
	}
}

func synth32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	a := rng.Float64()
	for i := range out {
		x := float64(i) * 0.003
		out[i] = float32(math.Sin(x+a) + 0.2*math.Cos(7*x))
	}
	return out
}

func synth64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	a := rng.Float64()
	for i := range out {
		x := float64(i) * 0.003
		out[i] = math.Sin(x+a) + 0.2*math.Cos(7*x)
	}
	return out
}

func adversarial32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = math.Float32frombits(rng.Uint32())
		case 1:
			out[i] = float32(math.NaN())
		case 2:
			out[i] = float32(math.Inf(1))
		case 3:
			out[i] = math.Float32frombits(rng.Uint32() & 0x807FFFFF)
		default:
			out[i] = (rng.Float32() - 0.5) * 100
		}
	}
	return out
}

// TestGPUBitIdentical32 is the reproduction of the paper's central claim:
// the GPU-formulated kernels produce the same bytes as the CPU encoder, and
// the GPU decoder reconstructs the same values bit for bit.
func TestGPUBitIdentical32(t *testing.T) {
	forceParallel(t)
	inputs := map[string][]float32{
		"smooth":      synth32(3*core.ChunkWords32+1234, 1),
		"adversarial": adversarial32(2*core.ChunkWords32+7, 2),
		"tiny":        synth32(5, 3),
		"one-chunk":   synth32(core.ChunkWords32, 4),
		"empty":       nil,
	}
	for name, src := range inputs {
		for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
			ref, err := core.CompressSerial32(src, mode, 1e-3)
			if err != nil {
				t.Fatalf("%s %v: serial: %v", name, mode, err)
			}
			got, err := core.Compress(Exec[float32]{RTX4090}, src, mode, 1e-3, nil)
			if err != nil {
				t.Fatalf("%s %v: gpu: %v", name, mode, err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s %v: GPU stream differs from serial (%d vs %d bytes)", name, mode, len(got), len(ref))
			}
			// Cross-device: serial-compressed, GPU-decompressed.
			want, err := core.DecompressSerial32(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.Decompress(Exec[float32]{A100}, ref, nil, nil)
			if err != nil {
				t.Fatalf("%s %v: gpu decompress: %v", name, mode, err)
			}
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(dec[i]) {
					t.Fatalf("%s %v: value %d differs: %x vs %x", name, mode, i,
						math.Float32bits(want[i]), math.Float32bits(dec[i]))
				}
			}
		}
	}
}

func TestGPUBitIdentical64(t *testing.T) {
	forceParallel(t)
	inputs := map[string][]float64{
		"smooth": synth64(3*core.ChunkWords64+555, 5),
		"tiny":   synth64(3, 6),
	}
	for name, src := range inputs {
		for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
			ref, err := core.CompressSerial64(src, mode, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Compress(Exec[float64]{RTX4090}, src, mode, 1e-4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s %v: GPU stream differs from serial", name, mode)
			}
			want, _ := core.DecompressSerial64(ref, nil)
			dec, err := core.Decompress(Exec[float64]{TitanXp}, ref, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(dec[i]) {
					t.Fatalf("%s %v: value %d differs", name, mode, i)
				}
			}
		}
	}
}

func TestGPUAllModelsIdentical(t *testing.T) {
	forceParallel(t)
	// Device geometry (SMs, clock, block limits) must never change the
	// output bytes, only modelled speed.
	src := synth32(2*core.ChunkWords32+99, 7)
	var ref []byte
	for _, m := range Models {
		got, err := core.Compress(Exec[float32]{m}, src, core.ABS, 1e-2, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("%s produces different bytes", m.Name)
		}
	}
}

func TestGPURejectsCorruptStreams(t *testing.T) {
	// The f64 decoder shares its expansion code with f32, so both
	// precisions run the truncation check and the bit-flip sweep.
	for _, tc := range []struct {
		name       string
		compress   func() ([]byte, error)
		decompress func([]byte) error
	}{
		{"f32", func() ([]byte, error) {
			return core.Compress(Exec[float32]{RTX4090}, synth32(50000, 8), core.ABS, 1e-3, nil)
		}, func(buf []byte) error {
			_, err := core.Decompress(Exec[float32]{RTX4090}, buf, nil, nil)
			return err
		}},
		{"f64", func() ([]byte, error) {
			return core.Compress(Exec[float64]{RTX4090}, synth64(30000, 8), core.ABS, 1e-6, nil)
		}, func(buf []byte) error {
			_, err := core.Decompress(Exec[float64]{RTX4090}, buf, nil, nil)
			return err
		}},
	} {
		comp, err := tc.compress()
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.decompress(comp[:len(comp)-3]); err == nil {
			t.Errorf("%s: truncated stream accepted", tc.name)
		}
		rng := rand.New(rand.NewSource(9))
		for iter := 0; iter < 100; iter++ {
			buf := append([]byte(nil), comp...)
			buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
			// Must never panic.
			_ = tc.decompress(buf)
		}
	}
}

func TestThroughputModelRanking(t *testing.T) {
	// §V-F: the RTX 4090 is fastest; performance correlates with compute;
	// the 2070 Super performs like the 3-year-older TITAN Xp.
	n := 1 << 24
	comp := n // assume ratio 4 on 4-byte values
	secs := make(map[string]float64)
	for _, m := range Models {
		secs[m.Name] = m.EstimateSeconds(n, 4, comp, false, false)
	}
	if !(secs["RTX 4090"] < secs["A100"]) {
		t.Errorf("4090 (%g) not faster than A100 (%g)", secs["RTX 4090"], secs["A100"])
	}
	if !(secs["A100"] < secs["RTX 2070 Super"]) {
		t.Errorf("A100 not faster than 2070 Super")
	}
	r := secs["RTX 2070 Super"] / secs["TITAN Xp"]
	if r < 0.6 || r > 1.7 {
		t.Errorf("2070 Super vs TITAN Xp ratio %g, want near parity", r)
	}
	// Headline calibration: ~446 GB/s compression on the 4090.
	gbps := float64(n*4) / secs["RTX 4090"] / 1e9
	if gbps < 350 || gbps > 550 {
		t.Errorf("modelled 4090 compression %g GB/s, want ~446", gbps)
	}
}

func TestDRAMUtilizationModest(t *testing.T) {
	// §V-F: PFPL is compute-bound; the A100 uses ~15% of DRAM bandwidth.
	n := 1 << 24
	util := A100.DRAMUtilization(n, 4, n/3, false, false)
	if util > 0.5 {
		t.Errorf("A100 modelled DRAM utilization %g, want well below saturation", util)
	}
	util4090 := RTX4090.DRAMUtilization(n, 4, n/3, false, false)
	if util4090 <= util {
		t.Errorf("4090 utilization (%g) should exceed A100's (%g): lower bandwidth", util4090, util)
	}
}

func TestGPUCompressDecompressThreadCounts(t *testing.T) {
	forceParallel(t)
	// Block size must not affect bytes: run a degenerate 1-thread device.
	tiny := DeviceModel{Name: "tiny", SMs: 1, CoresPerSM: 1, BoostClockGHz: 1,
		MemBandwidthGBs: 1, MaxThreadsPerBlock: 32}
	src := synth32(core.ChunkWords32+123, 10)
	ref, _ := core.CompressSerial32(src, core.REL, 1e-2)
	got, err := core.Compress(Exec[float32]{tiny}, src, core.REL, 1e-2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatal("32-thread blocks change the output bytes")
	}
	dec, err := core.Decompress(Exec[float32]{tiny}, got, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.DecompressSerial32(ref, nil)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(dec[i]) {
			t.Fatalf("value %d differs", i)
		}
	}
}

// atomicAdd is a tiny helper so the test reads naturally.
func atomicAdd(p *int64) int64 {
	return atomic.AddInt64(p, 1)
}
