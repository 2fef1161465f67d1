package gpusim

import (
	"math/rand"
	"testing"

	"pfpl/internal/bits"
)

func TestWarpShuffleXor(t *testing.T) {
	var lanes [32]uint32
	for i := range lanes {
		lanes[i] = uint32(i)
	}
	var out [32]uint32
	warpShuffleXor(lanes[:], out[:], 5)
	for l := range out {
		if out[l] != uint32(l^5) {
			t.Fatalf("lane %d received %d, want %d", l, out[l], l^5)
		}
	}
}

func TestTransposeWarpShuffle32MatchesLibrary(t *testing.T) {
	// The shuffle-instruction formulation must produce exactly what the
	// CPU path's bit transpose produces — the paper's cross-device
	// equivalence at the primitive level.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 1000; iter++ {
		var a, b [32]uint32
		for i := range a {
			a[i] = rng.Uint32()
			b[i] = a[i]
		}
		TransposeWarpShuffle(a[:])
		bits.Transpose32(&b)
		if a != b {
			t.Fatalf("iter %d: shuffle transpose differs from library transpose", iter)
		}
	}
}

func TestTransposeWarpShuffle64MatchesLibrary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		var a, b [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = a[i]
		}
		TransposeWarpShuffle(a[:])
		bits.Transpose64(&b)
		if a != b {
			t.Fatalf("iter %d: shuffle transpose differs from library transpose", iter)
		}
	}
}

func TestTransposeWarpShuffleInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, orig [32]uint32
	for i := range a {
		a[i] = rng.Uint32()
		orig[i] = a[i]
	}
	TransposeWarpShuffle(a[:])
	TransposeWarpShuffle(a[:])
	if a != orig {
		t.Fatal("double shuffle transpose is not identity")
	}
}
