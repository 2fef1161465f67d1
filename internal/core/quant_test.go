package core

import (
	"math"
	"math/rand"
	"testing"
)

// randFloat32 produces values spanning the whole encoding space, including
// denormals, zeros, infinities, and NaNs.
func randFloat32(rng *rand.Rand) float32 {
	switch rng.Intn(10) {
	case 0:
		return math.Float32frombits(rng.Uint32()) // arbitrary bit pattern
	case 1:
		return float32(math.NaN())
	case 2:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	case 3:
		return math.Float32frombits(rng.Uint32() & 0x807FFFFF) // denormal or zero
	case 4:
		return 0
	case 5:
		return float32(math.Copysign(0, -1))
	default:
		return (rng.Float32() - 0.5) * float32(math.Pow(10, float64(rng.Intn(12)-6)))
	}
}

func randFloat64(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case 3:
		return math.Float64frombits(rng.Uint64() & 0x800FFFFFFFFFFFFF)
	case 4:
		return 0
	case 5:
		return math.Copysign(0, -1)
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24)-12))
	}
}

// checkBound32 verifies the reconstruction honors the bound for the mode,
// using the audit arithmetic of the evaluation harness.
func checkBound32(t *testing.T, p *Params, v, r float32) {
	t.Helper()
	v64, r64 := float64(v), float64(r)
	if math.IsNaN(v64) {
		if !math.IsNaN(r64) {
			t.Fatalf("NaN reconstructed as %g", r)
		}
		return
	}
	if math.IsInf(v64, 0) {
		if r64 != v64 {
			t.Fatalf("Inf %g reconstructed as %g", v, r)
		}
		return
	}
	switch p.Mode {
	case ABS, NOA:
		if d := math.Abs(v64 - r64); !(d <= p.AbsBound()) {
			t.Fatalf("mode %v bound %g: |%g - %g| = %g exceeds %g", p.Mode, p.Bound, v, r, d, p.AbsBound())
		}
	case REL:
		if v64 == 0 {
			if r64 != 0 {
				t.Fatalf("zero reconstructed as %g", r)
			}
			return
		}
		if e := math.Abs(v64-r64) / math.Abs(v64); !(e <= p.Bound) {
			t.Fatalf("REL bound %g: v=%g r=%g rel err %g", p.Bound, v, r, e)
		}
		if r64 != 0 && math.Signbit(v64) != math.Signbit(r64) {
			t.Fatalf("REL sign flip: v=%g r=%g", v, r)
		}
	}
}

func checkBound64(t *testing.T, p *Params, v, r float64) {
	t.Helper()
	if math.IsNaN(v) {
		if !math.IsNaN(r) {
			t.Fatalf("NaN reconstructed as %g", r)
		}
		return
	}
	if math.IsInf(v, 0) {
		if r != v {
			t.Fatalf("Inf %g reconstructed as %g", v, r)
		}
		return
	}
	switch p.Mode {
	case ABS, NOA:
		if d := math.Abs(v - r); !(d <= p.AbsBound()) {
			t.Fatalf("mode %v bound %g: |%g - %g| = %g exceeds %g", p.Mode, p.Bound, v, r, d, p.AbsBound())
		}
	case REL:
		if v == 0 {
			if r != 0 {
				t.Fatalf("zero reconstructed as %g", r)
			}
			return
		}
		if e := math.Abs(v-r) / math.Abs(v); !(e <= p.Bound) {
			t.Fatalf("REL bound %g: v=%g r=%g rel err %g", p.Bound, v, r, e)
		}
		if r != 0 && math.Signbit(v) != math.Signbit(r) {
			t.Fatalf("REL sign flip: v=%g r=%g", v, r)
		}
	}
}

var testBounds = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-6}

func TestQuantizerGuarantee32(t *testing.T) {
	for _, mode := range []Mode{ABS, REL} {
		for _, bound := range testBounds {
			p, err := NewParams(mode, bound, 0, false)
			if err != nil {
				t.Fatalf("NewParams(%v, %g): %v", mode, bound, err)
			}
			rng := rand.New(rand.NewSource(int64(mode)*1000 + int64(bound*1e7)))
			for i := 0; i < 50000; i++ {
				v := randFloat32(rng)
				w := p.EncodeValue32(v)
				r := p.DecodeValue32(w)
				checkBound32(t, &p, v, r)
			}
		}
	}
}

func TestQuantizerGuarantee64(t *testing.T) {
	for _, mode := range []Mode{ABS, REL} {
		for _, bound := range testBounds {
			p, err := NewParams(mode, bound, 0, true)
			if err != nil {
				t.Fatalf("NewParams(%v, %g): %v", mode, bound, err)
			}
			rng := rand.New(rand.NewSource(int64(mode)*2000 + int64(bound*1e7)))
			for i := 0; i < 50000; i++ {
				v := randFloat64(rng)
				w := p.EncodeValue64(v)
				r := p.DecodeValue64(w)
				checkBound64(t, &p, v, r)
			}
		}
	}
}

func TestNOAQuantizer(t *testing.T) {
	for _, rngWidth := range []float64{1, 1000, 1e-3} {
		p, err := NewParams(NOA, 1e-3, rngWidth, false)
		if err != nil {
			t.Fatal(err)
		}
		if p.Raw {
			t.Fatalf("range %g unexpectedly raw", rngWidth)
		}
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 20000; i++ {
			v := float32(r.Float64() * rngWidth)
			w := p.EncodeValue32(v)
			rec := p.DecodeValue32(w)
			checkBound32(t, &p, v, rec)
		}
	}
}

func TestNOAZeroRangeIsRaw(t *testing.T) {
	p, err := NewParams(NOA, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Raw {
		t.Fatal("zero range must force raw (lossless) mode")
	}
	for _, v := range []float32{0, 1.5, float32(math.Inf(1))} {
		if got := p.DecodeValue32(p.EncodeValue32(v)); got != v {
			t.Errorf("raw mode roundtrip %g -> %g", v, got)
		}
	}
}

func TestABSDenormalQuantizesToZero(t *testing.T) {
	// Denormal inputs must land in bin 0 (paper §III.B): the denormal range
	// is reserved for bin numbers.
	p, err := NewParams(ABS, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []uint32{1, 0x1234, 0x7FFFFF, 0x800001, 0x807FFFFF} {
		v := math.Float32frombits(b)
		w := p.EncodeValue32(v)
		if w&l32.exp != 0 {
			t.Fatalf("denormal %g (bits %#x) emitted losslessly as %#x", v, b, w)
		}
		if r := p.DecodeValue32(w); r != 0 {
			t.Fatalf("denormal %g reconstructed as %g, want 0", v, r)
		}
	}
}

func TestABSMinimumBoundValidation(t *testing.T) {
	if _, err := NewParams(ABS, MinNormal32/2, 0, false); err != ErrBoundSmall {
		t.Errorf("f32 bound below min normal: got %v, want ErrBoundSmall", err)
	}
	if _, err := NewParams(ABS, MinNormal64/2, 0, true); err != ErrBoundSmall {
		t.Errorf("f64 bound below min normal: got %v, want ErrBoundSmall", err)
	}
	// The f32 threshold must not be applied to f64 streams.
	if _, err := NewParams(ABS, MinNormal32/2, 0, true); err != nil {
		t.Errorf("f64 with tiny but valid bound: %v", err)
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewParams(ABS, bad, 0, false); err == nil {
			t.Errorf("bound %g accepted", bad)
		}
		if _, err := NewParams(REL, bad, 0, false); err == nil {
			t.Errorf("REL bound %g accepted", bad)
		}
	}
}

func TestRELNegativeNaNMadePositive(t *testing.T) {
	p, err := NewParams(REL, 1e-2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	negNaN := math.Float32frombits(0xFFC00001)
	w := p.EncodeValue32(negNaN)
	r := p.DecodeValue32(w)
	rb := math.Float32bits(r)
	if rb&l32.sign != 0 {
		t.Errorf("negative NaN not made positive: %#x", rb)
	}
	if rb&l32.exp != l32.exp || rb&l32.mant == 0 {
		t.Errorf("NaN not preserved as NaN: %#x", rb)
	}
	// Payload must be preserved.
	if rb&l32.mant != 0x400001 {
		t.Errorf("NaN payload changed: %#x", rb)
	}
}

func TestRELZeroHandling(t *testing.T) {
	p, err := NewParams(REL, 1e-2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r := p.DecodeValue32(p.EncodeValue32(0)); math.Float32bits(r) != 0 {
		t.Errorf("+0 roundtrip gave bits %#x", math.Float32bits(r))
	}
	nz := float32(math.Copysign(0, -1))
	if r := p.DecodeValue32(p.EncodeValue32(nz)); math.Float32bits(r) != l32.sign {
		t.Errorf("-0 roundtrip gave bits %#x", math.Float32bits(r))
	}
	if r := p.DecodeValue64(p.EncodeValue64(0)); math.Float64bits(r) != 0 {
		t.Errorf("f64 +0 roundtrip gave bits %#x", math.Float64bits(r))
	}
	if r := p.DecodeValue64(p.EncodeValue64(math.Copysign(0, -1))); math.Float64bits(r) != l64.sign {
		t.Errorf("f64 -0 roundtrip gave bits %#x", math.Float64bits(r))
	}
}

func TestABSBinEncodingIsDenormalRange(t *testing.T) {
	// Quantized words must have a zero exponent field; lossless words must
	// not — the disjointness that makes the single-stream design decodable.
	p, err := NewParams(ABS, 1e-2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	w := p.EncodeValue32(3.14159)
	if w&l32.exp != 0 {
		t.Errorf("quantizable value emitted with nonzero exponent: %#x", w)
	}
	// A value needing a bin beyond 2^23 must be lossless.
	huge := float32(1e30)
	w = p.EncodeValue32(huge)
	if w != math.Float32bits(huge) {
		t.Errorf("unquantizable value not stored losslessly: %#x", w)
	}
	if r := p.DecodeValue32(w); r != huge {
		t.Errorf("lossless roundtrip %g -> %g", huge, r)
	}
}

func TestQuantizerBinsAreSmallIntegers(t *testing.T) {
	// Nearby values should produce nearby bin codes — the property the
	// delta stage exploits.
	p, err := NewParams(ABS, 1e-2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.EncodeValue32(1.00)
	next := p.EncodeValue32(1.02)
	if d := int64(next) - int64(prev); d < 0 || d > 2 {
		t.Errorf("adjacent values map to distant bins: %d and %d", prev, next)
	}
}

func TestQuantizerDeterminism(t *testing.T) {
	// Two independently constructed Params must produce identical words —
	// the foundation of cross-device compatibility.
	rng := rand.New(rand.NewSource(99))
	for _, mode := range []Mode{ABS, REL} {
		p1, _ := NewParams(mode, 1e-3, 0, false)
		p2, _ := NewParams(mode, 1e-3, 0, false)
		for i := 0; i < 10000; i++ {
			v := randFloat32(rng)
			if w1, w2 := p1.EncodeValue32(v), p2.EncodeValue32(v); w1 != w2 {
				t.Fatalf("mode %v: nondeterministic encode of %g: %#x vs %#x", mode, v, w1, w2)
			}
		}
	}
}

func TestUnquantizableFractionSmallOnSmoothData(t *testing.T) {
	// Paper §III.B: at ABS 1e-3, on average ~0.7% of values are
	// unquantizable. On smooth synthetic data the fraction should be tiny.
	p, err := NewParams(ABS, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	lossless := 0
	n := 100000
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i) * 0.001))
		w := p.EncodeValue32(v)
		if w&l32.exp != 0 {
			lossless++
		}
	}
	if frac := float64(lossless) / float64(n); frac > 0.02 {
		t.Errorf("unquantizable fraction %f too high on smooth data", frac)
	}
}

func TestRelPayloadRoundtrip(t *testing.T) {
	for _, bin := range []int64{0, 1, -1, 1000, -1000, int64(l32.relBin()), -int64(l32.relBin())} {
		for _, neg := range []bool{false, true} {
			p := relPayload(bin, neg)
			b, n := relUnpayload(p)
			if b != bin || n != neg {
				t.Errorf("relPayload(%d,%v) roundtrip gave (%d,%v)", bin, neg, b, n)
			}
			if p == 0 || p == relPosZero || p == relNegZero {
				t.Errorf("relPayload(%d,%v) = %d collides with a reserved code", bin, neg, p)
			}
		}
	}
	// The widest f32 payload must fit in the 23-bit mantissa.
	if p := relPayload(int64(l32.relBin()), true); p > uint64(l32.mant) {
		t.Errorf("max f32 payload %#x exceeds 23 bits", p)
	}
	if p := relPayload(-int64(l32.relBin()), true); p > uint64(l32.mant) {
		t.Errorf("min f32 payload %#x exceeds 23 bits", p)
	}
	if p := relPayload(int64(l64.relBin()), true); p > uint64(l64.mant) {
		t.Errorf("max f64 payload %#x exceeds 52 bits", p)
	}
}

// The bin-encoding layouts of the two word widths, for the tests.
var (
	l32 = layoutOf[uint32]()
	l64 = layoutOf[uint64]()
)

// TestLayoutConstants pins the derived layouts to the IEEE-754 constants
// of each width (paper §III.B).
func TestLayoutConstants(t *testing.T) {
	type row struct {
		sign, exp, mant, relXor uint64
		maxBin, relBin          float64
	}
	for _, c := range []struct {
		name      string
		got, want row
	}{
		{"32", row{uint64(l32.sign), uint64(l32.exp), uint64(l32.mant), uint64(l32.relXor()), l32.maxBin(), l32.relBin()},
			row{0x80000000, 0x7F800000, 0x007FFFFF, 0xFF800000, 1<<23 - 1, 1<<20 - 1}},
		{"64", row{l64.sign, l64.exp, l64.mant, l64.relXor(), l64.maxBin(), l64.relBin()},
			row{0x8000000000000000, 0x7FF0000000000000, 0x000FFFFFFFFFFFFF, 0xFFF0000000000000, 1<<52 - 1, 1<<49 - 1}},
	} {
		if c.got != c.want {
			t.Errorf("layout %s = %#v, want %#v", c.name, c.got, c.want)
		}
	}
}
