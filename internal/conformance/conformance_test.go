package conformance

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"pfpl"
)

// forceParallel runs the test at GOMAXPROCS 8 whatever the host's core
// count, so every executor's concurrent path really runs concurrently (the
// simulated GPU grid runs its blocks serially at GOMAXPROCS 1).
func forceParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDifferentialSweep is the core cross-executor conformance check: every
// corpus entry × mode × precision is compressed by every executor and the
// streams must be byte-identical; the reference stream is decompressed by
// every executor and the outputs must be bit-identical; and the
// reconstruction must satisfy the requested bound at every point, evaluated
// in float64 by this package's own independent checker (not the library's
// VerifyBound, so a shared bug cannot hide).
func TestDifferentialSweep(t *testing.T) {
	forceParallel(t)
	execs := Executors()
	for _, e := range Corpus() {
		if testing.Short() && e.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			e, cfg := e, cfg
			t.Run(e.Name+"/"+cfg.Name()+"/f32", func(t *testing.T) {
				t.Parallel()
				sweep32(t, execs, e, cfg)
			})
			t.Run(e.Name+"/"+cfg.Name()+"/f64", func(t *testing.T) {
				t.Parallel()
				sweep64(t, execs, e, cfg)
			})
		}
	}
}

func sweep32(t *testing.T, execs []Executor, e Entry, cfg Config) {
	ref, err := pfpl.Serial().Compress32(e.F32, cfg.Mode, cfg.Bound)
	if err != nil {
		t.Fatalf("serial compress: %v", err)
	}
	refDec, err := pfpl.Serial().Decompress32(ref, nil)
	if err != nil {
		t.Fatalf("serial decompress: %v", err)
	}
	if len(refDec) != len(e.F32) {
		t.Fatalf("serial decode length %d, want %d", len(refDec), len(e.F32))
	}
	if bad, i := checkBound32(e.F32, refDec, cfg.Mode, cfg.Bound); bad {
		t.Fatalf("bound violated at element %d: orig %x recon %x",
			i, math.Float32bits(e.F32[i]), math.Float32bits(refDec[i]))
	}
	for _, ex := range execs {
		if ex.Reference || (testing.Short() && !ex.Short) {
			continue
		}
		comp, err := ex.Dev.Compress32(e.F32, cfg.Mode, cfg.Bound)
		if err != nil {
			t.Fatalf("%s compress: %v", ex.Name, err)
		}
		if !bytes.Equal(comp, ref) {
			t.Fatalf("%s stream differs from serial (%d vs %d bytes, first diff %d)",
				ex.Name, len(comp), len(ref), firstDiff(comp, ref))
		}
		dec, err := ex.Dev.Decompress32(ref, nil)
		if err != nil {
			t.Fatalf("%s decompress: %v", ex.Name, err)
		}
		if i := firstDiff32(dec, refDec); i >= 0 {
			t.Fatalf("%s decode differs from serial at element %d", ex.Name, i)
		}
	}
}

func sweep64(t *testing.T, execs []Executor, e Entry, cfg Config) {
	ref, err := pfpl.Serial().Compress64(e.F64, cfg.Mode, cfg.Bound)
	if err != nil {
		t.Fatalf("serial compress: %v", err)
	}
	refDec, err := pfpl.Serial().Decompress64(ref, nil)
	if err != nil {
		t.Fatalf("serial decompress: %v", err)
	}
	if len(refDec) != len(e.F64) {
		t.Fatalf("serial decode length %d, want %d", len(refDec), len(e.F64))
	}
	if bad, i := checkBound64(e.F64, refDec, cfg.Mode, cfg.Bound); bad {
		t.Fatalf("bound violated at element %d: orig %x recon %x",
			i, math.Float64bits(e.F64[i]), math.Float64bits(refDec[i]))
	}
	for _, ex := range execs {
		if ex.Reference || (testing.Short() && !ex.Short) {
			continue
		}
		comp, err := ex.Dev.Compress64(e.F64, cfg.Mode, cfg.Bound)
		if err != nil {
			t.Fatalf("%s compress: %v", ex.Name, err)
		}
		if !bytes.Equal(comp, ref) {
			t.Fatalf("%s stream differs from serial (%d vs %d bytes, first diff %d)",
				ex.Name, len(comp), len(ref), firstDiff(comp, ref))
		}
		dec, err := ex.Dev.Decompress64(ref, nil)
		if err != nil {
			t.Fatalf("%s decompress: %v", ex.Name, err)
		}
		if i := firstDiff64(dec, refDec); i >= 0 {
			t.Fatalf("%s decode differs from serial at element %d", ex.Name, i)
		}
	}
}

// TestChecksumTrailerIdentical verifies the CRC-32C trailer path through the
// public Options API is device-independent too.
func TestChecksumTrailerIdentical(t *testing.T) {
	forceParallel(t)
	e := findEntry(t, "specials")
	for _, cfg := range Configs() {
		opts := pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound, Checksum: true}
		opts.Device = pfpl.Serial()
		ref, err := pfpl.Compress32(e.F32, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		for _, ex := range Executors()[1:] {
			if testing.Short() && !ex.Short {
				continue
			}
			opts.Device = ex.Dev
			got, err := pfpl.Compress32(e.F32, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name(), ex.Name, err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s/%s: checksummed stream differs", cfg.Name(), ex.Name)
			}
			dec, err := pfpl.Decompress32(ref, nil, pfpl.Options{Device: ex.Dev})
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", cfg.Name(), ex.Name, err)
			}
			if len(dec) != len(e.F32) {
				t.Fatalf("%s/%s: decode length %d", cfg.Name(), ex.Name, len(dec))
			}
		}
	}
}

func findEntry(t *testing.T, name string) Entry {
	t.Helper()
	for _, e := range Corpus() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("corpus entry %q not found", name)
	return Entry{}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func firstDiff32(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func firstDiff64(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkBound32 audits every point of the reconstruction against the README's
// documented guarantee, evaluated in float64 exactly as written there. It is
// deliberately independent of pfpl.VerifyBound.
func checkBound32(orig, recon []float32, mode pfpl.Mode, bound float64) (bad bool, at int) {
	noaBound := math.Inf(1)
	if mode == pfpl.NOA {
		noaBound = bound * rangeOf(func(i int) float64 { return float64(orig[i]) }, len(orig))
	}
	for i := range orig {
		if !pointOK(float64(orig[i]), float64(recon[i]), mode, bound, noaBound) {
			return true, i
		}
	}
	return false, 0
}

func checkBound64(orig, recon []float64, mode pfpl.Mode, bound float64) (bad bool, at int) {
	noaBound := math.Inf(1)
	if mode == pfpl.NOA {
		noaBound = bound * rangeOf(func(i int) float64 { return orig[i] }, len(orig))
	}
	for i := range orig {
		if !pointOK(orig[i], recon[i], mode, bound, noaBound) {
			return true, i
		}
	}
	return false, 0
}

// rangeOf computes max-min over the finite values in float64, the NOA
// normalization. All-NaN or empty input yields 0.
func rangeOf(at func(i int) float64, n int) float64 {
	mn, mx := math.Inf(1), math.Inf(-1)
	seen := false
	for i := 0; i < n; i++ {
		v := at(i)
		if math.IsNaN(v) {
			continue
		}
		seen = true
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	if !seen {
		return 0
	}
	return mx - mn
}

func pointOK(v, r float64, mode pfpl.Mode, bound, noaBound float64) bool {
	if math.IsNaN(v) {
		return math.IsNaN(r)
	}
	if math.IsInf(v, 0) {
		return r == v
	}
	switch mode {
	case pfpl.ABS:
		return math.Abs(v-r) <= bound
	case pfpl.NOA:
		return math.Abs(v-r) <= noaBound
	case pfpl.REL:
		if v == 0 {
			return r == 0
		}
		if !(math.Abs(v-r)/math.Abs(v) <= bound) {
			return false
		}
		return r == 0 || math.Signbit(v) == math.Signbit(r)
	}
	return false
}
