package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestChunkWindowMatchesChunkTable checks the windowed table against the
// full prefix sum for every window of a multi-chunk stream.
func TestChunkWindowMatchesChunkTable(t *testing.T) {
	src := smooth32(5*ChunkWords32+123, 17)
	comp, err := CompressSerial32(src, ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	fullOff, fullLen, fullRaw, _, err := ChunkTable(comp, &h)
	if err != nil {
		t.Fatal(err)
	}
	table, _ := ChunkTableBytes(comp, &h)
	for first := 0; first < h.NumChunks; first++ {
		for last := first; last < h.NumChunks; last++ {
			off, l, raw, err := ChunkWindow(table, first, last)
			if err != nil {
				t.Fatalf("ChunkWindow(%d,%d): %v", first, last, err)
			}
			for i := 0; i <= last-first; i++ {
				if off[i] != fullOff[first+i] || l[i] != fullLen[first+i] || raw[i] != fullRaw[first+i] {
					t.Fatalf("window (%d,%d) entry %d disagrees with ChunkTable", first, last, i)
				}
			}
		}
	}
	// Out-of-range windows are rejected.
	for _, w := range [][2]int{{-1, 0}, {2, 1}, {0, h.NumChunks}, {h.NumChunks, h.NumChunks}} {
		if _, _, _, err := ChunkWindow(table, w[0], w[1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ChunkWindow(%d,%d) = %v, want ErrCorrupt", w[0], w[1], err)
		}
	}
}

// TestChunkWindowSkipsTrailingCorruption pins the satellite contract: a
// corrupt table entry *after* the requested window cannot fail a query that
// never touches it — the old full prefix sum rejected the whole stream.
func TestChunkWindowSkipsTrailingCorruption(t *testing.T) {
	src := smooth32(4*ChunkWords32, 29)
	comp, err := CompressSerial32(src, ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecompressRange[float32](comp, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Wreck the last chunk's table entry (length > MaxChunkPayload).
	bad := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint32(bad[headerSize+4*3:], uint32(MaxChunkPayload+1))
	got, err := DecompressRange[float32](bad, 10, 20)
	if err != nil {
		t.Fatalf("window before the corrupt entry failed: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("window decode differs after trailing corruption")
		}
	}
	// A window that covers the corrupt entry still fails.
	if _, err := DecompressRange[float32](bad, 3*ChunkWords32, 5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("window over corrupt entry = %v, want ErrCorrupt", err)
	}
	// So does one whose covering span runs past a truncated payload.
	trunc := comp[:len(comp)-10]
	if _, err := DecompressRange[float32](trunc, 3*ChunkWords32, 5); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("window past truncated payload = %v, want ErrCorrupt", err)
	}
}

// BenchmarkDecompressRangeWindow shows the satellite-2 effect: the cost of
// a fixed-size window at the front of a stream no longer grows with the
// stream's total chunk count.
func BenchmarkDecompressRangeWindow(b *testing.B) {
	for _, chunks := range []int{16, 256, 1024} {
		src := smooth32(chunks*ChunkWords32, 13)
		comp, err := CompressSerial32(src, ABS, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("front-window/chunks=%d", chunks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecompressRange[float32](comp, 5, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
