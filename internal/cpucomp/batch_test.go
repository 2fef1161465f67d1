package cpucomp

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pfpl/internal/core"
)

func testBatchFields32() [][]float32 {
	mk := func(n int, f func(i int) float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	smooth := func(i int) float32 { return float32(math.Sin(float64(i) * 0.01)) }
	return [][]float32{
		mk(16, smooth),
		{},
		mk(core.ChunkWords32+17, smooth),
		mk(3*core.ChunkWords32, func(i int) float32 { return float32(i%7) * 0.125 }),
		{float32(math.NaN()), float32(math.Inf(-1)), 1e-42, 0},
		mk(core.ChunkWords32, smooth),
	}
}

// TestCompressBatch32MatchesPack pins the one-dispatch batch compressor to
// the reference packing of per-field serial outputs, at several worker
// counts (the carry chain must make the bytes scheduling-independent).
func TestCompressBatch32MatchesPack(t *testing.T) {
	forceParallel(t)
	fields := testBatchFields32()
	comps := make([][]byte, len(fields))
	for i, f := range fields {
		c, err := core.CompressSerial32(f, core.ABS, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = c
	}
	want, err := core.PackBatch(comps, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 7, 0} {
		got, err := CompressBatch32(fields, core.ABS, 1e-3, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: batch container differs from reference packing", w)
		}
	}
}

func TestBatchRoundtrip32(t *testing.T) {
	forceParallel(t)
	fields := testBatchFields32()
	for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
		bound := 1e-3
		if mode == core.REL {
			bound = 1e-2
		}
		buf, err := CompressBatch32(fields, mode, bound, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got, err := DecompressBatch32(buf, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(got) != len(fields) {
			t.Fatalf("%v: %d fields, want %d", mode, len(got), len(fields))
		}
		for i := range fields {
			if len(got[i]) != len(fields[i]) {
				t.Fatalf("%v field %d: %d values, want %d", mode, i, len(got[i]), len(fields[i]))
			}
		}
	}
}

func TestBatchRoundtrip64Pool(t *testing.T) {
	forceParallel(t)
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Cos(float64(i) * 0.02)
		}
		return out
	}
	fields := [][]float64{mk(core.ChunkWords64 + 3), {}, mk(9), mk(2 * core.ChunkWords64)}
	pool := NewPool(3)
	defer pool.Close()
	buf, err := core.CompressBatch(Exec[float64]{pool}, fields, core.ABS, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CompressBatch64(fields, core.ABS, 1e-6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("pool batch container differs from spawning-executor output")
	}
	got, err := core.DecompressBatch(Exec[float64]{pool}, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fields {
		for j := range fields[i] {
			if math.Abs(fields[i][j]-got[i][j]) > 1e-6 {
				t.Fatalf("field %d[%d]: bound violated", i, j)
			}
		}
	}
}

func TestCompressBatchFieldError(t *testing.T) {
	fields := [][]float32{{1, 2}, {3, 4}}
	_, err := CompressBatch32(fields, core.ABS, -1, 0)
	if !errors.Is(err, core.ErrBadBound) {
		t.Fatalf("err = %v, want ErrBadBound", err)
	}
}

func TestDecompressBatchWrongPrecision(t *testing.T) {
	buf, err := CompressBatch32([][]float32{{1}}, core.ABS, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressBatch64(buf, 0); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// chunkStarts builds the global chunk index the batch executor dispatches
// over, from per-field chunk counts.
func chunkStarts(counts []int) []int {
	return core.ChunkStarts(len(counts), func(f int) int { return counts[f] })
}

func TestFieldOfChunk(t *testing.T) {
	// counts: field 0 has 2 chunks, 1 has 0, 2 has 3, 3 has 0, 4 has 1.
	starts := chunkStarts([]int{2, 0, 3, 0, 1})
	want := []int{0, 0, 2, 2, 2, 4}
	for g, f := range want {
		if got := core.FieldOfChunk(starts, g); got != f {
			t.Fatalf("FieldOfChunk(%d) = %d, want %d", g, got, f)
		}
	}
}

// TestFieldOfChunkZeroAllocs guards the //pfpl:hotpath binary search the
// batch workers run once per chunk.
func TestFieldOfChunkZeroAllocs(t *testing.T) {
	starts := chunkStarts([]int{2, 0, 3, 0, 1})
	allocs := testing.AllocsPerRun(100, func() {
		if core.FieldOfChunk(starts, 3) != 2 {
			t.Fatal("wrong field")
		}
	})
	if allocs != 0 {
		t.Fatalf("FieldOfChunk allocates %v times per op", allocs)
	}
}
