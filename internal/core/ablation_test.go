package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestSkipVerifyStillRoundtrips(t *testing.T) {
	// Without verification the stream still decodes; the bound merely loses
	// its guarantee on pathological values (the ablation semantics).
	p, err := NewParams(ABS, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	p.SkipVerify = true
	for i := 0; i < 10000; i++ {
		v := float32(math.Sin(float64(i) * 0.01))
		w := p.EncodeValue32(v)
		r := p.DecodeValue32(w)
		if d := math.Abs(float64(v) - float64(r)); d > 1e-3*1.5 {
			t.Fatalf("value %g error %g far out of bound even without verify", v, d)
		}
	}
}

func TestSkipVerifyImprovesOrMatchesRatio(t *testing.T) {
	// The guarantee can only add lossless values, so disabling it can only
	// shrink (or equal) the encoded size — the §III.B cost direction.
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 3*ChunkWords32)
	for i := range src {
		src[i] = float32(math.Sin(float64(i)*0.001) * math.Pow(10, float64(rng.Intn(6)-3)))
	}
	withVerify, _ := NewParams(ABS, 1e-3, 0, false)
	without, _ := NewParams(ABS, 1e-3, 0, false)
	without.SkipVerify = true
	var s Scratch32
	sizeWith, sizeWithout := 0, 0
	for lo := 0; lo < len(src); lo += ChunkWords32 {
		hi := min(lo+ChunkWords32, len(src))
		pl, _ := EncodeChunk32(&withVerify, src[lo:hi], &s)
		sizeWith += len(pl)
		pl, _ = EncodeChunk32(&without, src[lo:hi], &s)
		sizeWithout += len(pl)
	}
	if sizeWithout > sizeWith {
		t.Errorf("no-verify encoded %d bytes > verified %d", sizeWithout, sizeWith)
	}
}

func TestUseLibmRoundtripsWithinBound(t *testing.T) {
	// Libm-backed REL still honors the bound (the verification step is
	// independent of which log/exp produced the bins) — it is only
	// non-portable.
	p, err := NewParams(REL, 1e-3, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	p.UseLibm = true
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		v := float32(math.Exp(rng.Float64()*20-10) * (1 - 2*float64(rng.Intn(2))))
		w := p.EncodeValue32(v)
		r := p.DecodeValue32(w)
		if v == 0 {
			continue
		}
		e := math.Abs(float64(v)-float64(r)) / math.Abs(float64(v))
		if !(e <= 1e-3) {
			t.Fatalf("libm REL: v=%g r=%g rel err %g", v, r, e)
		}
	}
}

func TestLibmReducesUnquantizableValues(t *testing.T) {
	// The portable approximations send slightly more values to the
	// lossless path than libm does — the §III.C cost the ablation measures.
	portable, _ := NewParams(REL, 1e-5, 0, false)
	libm, _ := NewParams(REL, 1e-5, 0, false)
	libm.UseLibm = true
	rng := rand.New(rand.NewSource(3))
	portableLossless, libmLossless := 0, 0
	isBin := func(w uint32) bool {
		raw := w ^ 0xFF800000
		return raw&l32.exp == l32.exp && raw&l32.sign != 0 && raw&l32.mant != 0
	}
	for i := 0; i < 200000; i++ {
		v := float32(math.Exp(rng.Float64()*40 - 20))
		if !isBin(portable.EncodeValue32(v)) {
			portableLossless++
		}
		if !isBin(libm.EncodeValue32(v)) {
			libmLossless++
		}
	}
	if portableLossless < libmLossless {
		t.Errorf("portable lossless %d < libm lossless %d: expected approximation cost",
			portableLossless, libmLossless)
	}
}
