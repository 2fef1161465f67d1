package bits

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNegabinary32KnownValues(t *testing.T) {
	// Base -2 digits of small values, from the definition.
	cases := []struct {
		in  int32
		out uint32
	}{
		{0, 0b0},
		{1, 0b1},
		{-1, 0b11},
		{2, 0b110},
		{-2, 0b10},
		{3, 0b111},
		{-3, 0b1101},
		{4, 0b100},
		{-4, 0b1100},
		{5, 0b101},
		{6, 0b11010},
	}
	for _, c := range cases {
		if got := ToNegabinary(uint32(c.in)); got != c.out {
			t.Errorf("ToNegabinary[uint32](%d) = %#b, want %#b", c.in, got, c.out)
		}
	}
}

func TestNegabinary32Roundtrip(t *testing.T) {
	f := func(x uint32) bool { return FromNegabinary(ToNegabinary(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegabinary64Roundtrip(t *testing.T) {
	f := func(x uint64) bool { return FromNegabinary(ToNegabinary(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegabinary64KnownValues(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 2, -2, 100, -100} {
		// The low 32 digits of the base -2 representation of a small value
		// are identical in 32- and 64-bit conversions.
		got64 := ToNegabinary(uint64(x))
		got32 := ToNegabinary(uint32(x))
		if uint32(got64) != got32 {
			t.Errorf("negabinary64(%d) low word = %#x, want %#x", x, uint32(got64), got32)
		}
	}
}

func TestNegabinarySmallMagnitudesHaveLeadingZeros(t *testing.T) {
	// The property PFPL relies on: both small positive and small negative
	// residuals produce words with many leading zero bits.
	for _, x := range []int32{-128, -7, -1, 0, 1, 7, 127} {
		nb := ToNegabinary(uint32(x))
		if nb>>9 != 0 {
			t.Errorf("negabinary(%d) = %#x uses more than 9 bits", x, nb)
		}
	}
}

func TestZigZag(t *testing.T) {
	for _, c := range []struct {
		in  int32
		out uint32
	}{{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4}} {
		if got := ZigZag32(c.in); got != c.out {
			t.Errorf("ZigZag32(%d) = %d, want %d", c.in, got, c.out)
		}
		if got := UnZigZag32(c.out); got != c.in {
			t.Errorf("UnZigZag32(%d) = %d, want %d", c.out, got, c.in)
		}
	}
	f32 := func(x int32) bool { return UnZigZag32(ZigZag32(x)) == x }
	if err := quick.Check(f32, nil); err != nil {
		t.Error(err)
	}
}

func TestTranspose32SingleBits(t *testing.T) {
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			var a [32]uint32
			a[i] = 1 << uint(j)
			Transpose32(&a)
			for r := 0; r < 32; r++ {
				want := uint32(0)
				if r == j {
					want = 1 << uint(i)
				}
				if a[r] != want {
					t.Fatalf("bit (%d,%d): row %d = %#x, want %#x", i, j, r, a[r], want)
				}
			}
		}
	}
}

func TestTranspose32Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		var a, orig [32]uint32
		for i := range a {
			a[i] = rng.Uint32()
		}
		orig = a
		Transpose32(&a)
		Transpose32(&a)
		if a != orig {
			t.Fatalf("transpose32 applied twice is not identity")
		}
	}
}

// TransposePairs32 on the little-endian pairing of 32 rows must equal
// Transpose32 on the rows themselves.
func TestTransposePairs32MatchesTranspose32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		var a [32]uint32
		switch iter % 3 {
		case 0:
			for i := range a {
				a[i] = rng.Uint32()
			}
		case 1:
			a[rng.Intn(32)] = 1 << uint(rng.Intn(32))
		default:
			for i := range a {
				a[i] = 0xFFFFFFFF
			}
		}
		var le [128]byte
		for i, w := range a {
			binary.LittleEndian.PutUint32(le[i*4:], w)
		}
		var x [16]uint64
		for k := range x {
			x[k] = binary.LittleEndian.Uint64(le[k*8:])
		}
		Transpose32(&a)
		TransposePairs32(&x)
		for k, w := range x {
			binary.LittleEndian.PutUint64(le[k*8:], w)
		}
		for i, w := range a {
			if got := binary.LittleEndian.Uint32(le[i*4:]); got != w {
				t.Fatalf("iter %d row %d: pairs = %#x, Transpose32 = %#x", iter, i, got, w)
			}
		}
	}
}

func TestTranspose64SingleBits(t *testing.T) {
	// Exhaustive single-bit check like the 32-bit case but sampled on a
	// diagonal-plus-random pattern to keep runtime modest.
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 512; iter++ {
		i, j := rng.Intn(64), rng.Intn(64)
		var a [64]uint64
		a[i] = 1 << uint(j)
		Transpose64(&a)
		for r := 0; r < 64; r++ {
			want := uint64(0)
			if r == j {
				want = 1 << uint(i)
			}
			if a[r] != want {
				t.Fatalf("bit (%d,%d): row %d = %#x, want %#x", i, j, r, a[r], want)
			}
		}
	}
}

func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		var a, orig [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		orig = a
		Transpose64(&a)
		Transpose64(&a)
		if a != orig {
			t.Fatalf("transpose64 applied twice is not identity")
		}
	}
}

func TestTransposeZeroColumnsBecomeZeroWords(t *testing.T) {
	// If every input word has bit k clear, output word k must be zero.
	// This is the mechanism by which negabinary leading zeros become long
	// zero-byte runs for the elimination stage.
	var a [32]uint32
	rng := rand.New(rand.NewSource(4))
	for i := range a {
		a[i] = rng.Uint32() & 0x000000FF // only low 8 bits used
	}
	Transpose32(&a)
	for k := 8; k < 32; k++ {
		if a[k] != 0 {
			t.Errorf("word %d = %#x, want 0 (input had bit %d clear everywhere)", k, a[k], k)
		}
	}
}
