package core

import (
	"math"
	"testing"
)

func TestModeString(t *testing.T) {
	if ABS.String() != "ABS" || REL.String() != "REL" || NOA.String() != "NOA" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode produced empty string")
	}
}

func TestExportedBitmapLen(t *testing.T) {
	if BitmapLen(16384) != 2048 || BitmapLen(0) != 0 || BitmapLen(9) != 2 {
		t.Error("BitmapLen wrong")
	}
}

func TestChecksumCore(t *testing.T) {
	src := smooth32(5000, 21)
	comp, err := CompressSerial32(src, ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if HasChecksum(comp) {
		t.Fatal("plain stream reports checksum")
	}
	ck, err := AppendChecksum(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !HasChecksum(ck) {
		t.Fatal("trailer flag missing")
	}
	body, err := VerifyAndStripChecksum(ck)
	if err != nil {
		t.Fatal(err)
	}
	// The body decodes normally despite the (ignored) flag bit.
	dec, err := DecompressSerial32(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(src) {
		t.Fatalf("decoded %d values", len(dec))
	}
	// Any flip breaks verification.
	ck[100] ^= 1
	if _, err := VerifyAndStripChecksum(ck); err == nil {
		t.Error("corruption not detected")
	}
	// AppendChecksum validates its input.
	if _, err := AppendChecksum([]byte("garbage....")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestDecompressRangeCore(t *testing.T) {
	src := smooth32(3*ChunkWords32+100, 22)
	comp, err := CompressSerial32(src, ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := DecompressSerial32(comp, nil)
	got, err := DecompressRange[float32](comp, ChunkWords32-5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(full[ChunkWords32-5+i]) {
			t.Fatalf("value %d differs", i)
		}
	}
	// float64 path.
	src64 := smooth64(2*ChunkWords64+7, 23)
	c64, err := CompressSerial64(src64, REL, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	full64, _ := DecompressSerial64(c64, nil)
	got64, err := DecompressRange[float64](c64, ChunkWords64-3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got64 {
		if math.Float64bits(v) != math.Float64bits(full64[ChunkWords64-3+i]) {
			t.Fatalf("f64 value %d differs", i)
		}
	}
	if _, err := DecompressRange[float64](comp, 0, 1); err == nil {
		t.Error("precision mismatch accepted")
	}
	if _, err := DecompressRange[float32](c64, 0, 1); err == nil {
		t.Error("precision mismatch accepted (32)")
	}
}
