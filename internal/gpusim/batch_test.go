package gpusim

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pfpl/internal/core"
)

func batchTestFields32() [][]float32 {
	mk := func(n int, f func(i int) float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	smooth := func(i int) float32 { return float32(math.Sin(float64(i) * 0.01)) }
	return [][]float32{
		mk(10, smooth),
		{},
		mk(core.ChunkWords32+5, smooth),
		mk(2*core.ChunkWords32, func(i int) float32 { return float32(i%11) * 0.25 }),
		{float32(math.NaN()), float32(math.Inf(1)), -1e-40},
	}
}

// TestGridCompressBatch32MatchesPack pins the persistent-grid batch
// compressor to the reference packing of per-field serial outputs on two
// device models (different SM counts exercise different block interleavings).
func TestGridCompressBatch32MatchesPack(t *testing.T) {
	forceParallel(t)
	fields := batchTestFields32()
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
	for _, m := range []DeviceModel{RTX4090, A100} {
		got, err := core.CompressBatch(Exec[float32]{m}, fields, core.ABS, 1e-3, nil)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: batch container differs from reference packing", m.Name)
		}
	}
}

func TestGridBatchRoundtrip32(t *testing.T) {
	forceParallel(t)
	fields := batchTestFields32()
	for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
		bound := 1e-3
		if mode == core.REL {
			bound = 1e-2
		}
		buf, err := core.CompressBatch(Exec[float32]{RTX4090}, fields, mode, bound, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got, err := core.DecompressBatch(Exec[float32]{RTX4090}, buf, nil)
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

func TestGridBatchRoundtrip64(t *testing.T) {
	forceParallel(t)
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Cos(float64(i) * 0.03)
		}
		return out
	}
	fields := [][]float64{mk(core.ChunkWords64 + 1), {}, mk(7)}
	buf, err := core.CompressBatch(Exec[float64]{A100}, fields, core.ABS, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecompressBatch(Exec[float64]{A100}, buf, nil)
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

func TestGridBatchWrongPrecision(t *testing.T) {
	buf, err := core.CompressBatch(Exec[float32]{RTX4090}, [][]float32{{1}}, core.ABS, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecompressBatch(Exec[float64]{RTX4090}, buf, nil); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// blockStarts builds the global block index the grid dispatches over, from
// per-field block counts.
func blockStarts(counts []int) []int {
	return core.ChunkStarts(len(counts), func(f int) int { return counts[f] })
}

func TestFieldOfBlock(t *testing.T) {
	starts := blockStarts([]int{1, 0, 2})
	want := []int{0, 2, 2}
	for g, f := range want {
		if got := core.FieldOfChunk(starts, g); got != f {
			t.Fatalf("FieldOfChunk(%d) = %d, want %d", g, got, f)
		}
	}
}

// TestFieldOfBlockZeroAllocs guards the //pfpl:hotpath contract: the
// per-block field lookup runs inside every grid thread and must not allocate.
func TestFieldOfBlockZeroAllocs(t *testing.T) {
	starts := blockStarts([]int{3, 1, 0, 7, 2})
	if n := testing.AllocsPerRun(100, func() {
		for g := 0; g < 13; g++ {
			_ = core.FieldOfChunk(starts, g)
		}
	}); n != 0 {
		t.Fatalf("FieldOfChunk allocates %v times per run; hot path must be allocation-free", n)
	}
}
