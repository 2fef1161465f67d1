package core

// Cross-check fuzzers: the fast word-parallel kernels against the scalar
// reference on arbitrary input, including lengths that are not a multiple
// of the 8-word delta stride, the 32/64-word shuffle groups, or the 64-byte
// zero-elimination blocks. CI runs each under a dedicated fuzz budget; the
// seed corpus doubles as a regression test under `go test -race`.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pfpl/internal/core/ref"
)

func FuzzZeroElimFastPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Add(bytes.Repeat([]byte{0xFF}, 129))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 7}, 40))
	f.Add([]byte("\x00\x01\x00\x00\x00\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*ChunkBytes {
			data = data[:4*ChunkBytes]
		}
		// Encode: fast and reference must emit identical bytes.
		fastEnc := ZeroElimEncode(data, nil)
		slowEnc := ref.ZeroElimEncode(data, nil)
		if !bytes.Equal(fastEnc, slowEnc) {
			t.Fatalf("encode diverged: fast %d bytes, ref %d bytes", len(fastEnc), len(slowEnc))
		}
		// Decode: cross-implementation roundtrip.
		fastDst := make([]byte, len(data))
		slowDst := make([]byte, len(data))
		fu, ferr := ZeroElimDecode(slowEnc, fastDst)
		su, serr := ref.ZeroElimDecode(fastEnc, slowDst)
		if ferr != nil || serr != nil {
			t.Fatalf("decode of valid encoding errored: fast %v, ref %v", ferr, serr)
		}
		if fu != su || fu != len(fastEnc) {
			t.Fatalf("consumed %d (fast) / %d (ref) of %d bytes", fu, su, len(fastEnc))
		}
		if !bytes.Equal(fastDst, data) || !bytes.Equal(slowDst, data) {
			t.Fatal("roundtrip mismatch")
		}
		// Both implementations must agree on whether a mangled stream is
		// decodable; on agreement-to-accept the outputs must match too.
		if len(fastEnc) > 0 {
			mangled := fastEnc[:len(fastEnc)-1]
			fu, ferr = ZeroElimDecode(mangled, fastDst)
			su, serr = ref.ZeroElimDecode(mangled, slowDst)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("truncated stream verdicts diverge: fast %v, ref %v", ferr, serr)
			}
			if ferr == nil && (fu != su || !bytes.Equal(fastDst, slowDst)) {
				t.Fatal("truncated-stream decodes diverge")
			}
		}
		// Decode arbitrary bytes as a stream (first two bytes pick the
		// claimed payload length): the implementations must reach the same
		// verdict, and the same bytes when both accept.
		if len(data) >= 2 {
			n := int(binary.LittleEndian.Uint16(data)) % (2 * ChunkBytes)
			src := data[2:]
			fd := make([]byte, n)
			sd := make([]byte, n)
			fu, ferr = ZeroElimDecode(src, fd)
			su, serr = ref.ZeroElimDecode(src, sd)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("arbitrary-stream verdicts diverge: fast %v, ref %v", ferr, serr)
			}
			if ferr == nil && (fu != su || !bytes.Equal(fd, sd)) {
				t.Fatal("arbitrary-stream decodes diverge")
			}
		}
	})
}

func FuzzDeltaNegaRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0}, 9))
	f.Add([]byte("\x01\x00\x00\x80\xff\xff\xff\x7f\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8*ChunkBytes {
			raw = raw[:8*ChunkBytes]
		}
		// 32-bit lane view (length deliberately not rounded to the stride).
		n32 := len(raw) / 4
		w32 := make([]uint32, n32)
		for i := range w32 {
			w32[i] = binary.LittleEndian.Uint32(raw[i*4:])
		}
		fast32 := append([]uint32(nil), w32...)
		slow32 := append([]uint32(nil), w32...)
		DeltaNegaForward32(fast32)
		ref.DeltaNegaForward(slow32)
		for i := range fast32 {
			if fast32[i] != slow32[i] {
				t.Fatalf("forward32 diverged at %d: %#x vs %#x", i, fast32[i], slow32[i])
			}
		}
		// Inverse each with the opposite implementation.
		DeltaNegaInverse32(slow32)
		ref.DeltaNegaInverse(fast32)
		for i := range w32 {
			if fast32[i] != w32[i] || slow32[i] != w32[i] {
				t.Fatalf("inverse32 did not restore input at %d", i)
			}
		}

		// 64-bit lane view.
		n64 := len(raw) / 8
		w64 := make([]uint64, n64)
		for i := range w64 {
			w64[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		fast64 := append([]uint64(nil), w64...)
		slow64 := append([]uint64(nil), w64...)
		DeltaNegaForward64(fast64)
		ref.DeltaNegaForward(slow64)
		for i := range fast64 {
			if fast64[i] != slow64[i] {
				t.Fatalf("forward64 diverged at %d: %#x vs %#x", i, fast64[i], slow64[i])
			}
		}
		DeltaNegaInverse64(slow64)
		ref.DeltaNegaInverse(fast64)
		for i := range w64 {
			if fast64[i] != w64[i] || slow64[i] != w64[i] {
				t.Fatalf("inverse64 did not restore input at %d", i)
			}
		}
	})
}
