package core

import "testing"

func TestFieldOfChunk(t *testing.T) {
	// counts: field 0 has 2 chunks, 1 has 0, 2 has 3, 3 has 0, 4 has 1.
	counts := []int{2, 0, 3, 0, 1}
	starts := ChunkStarts(len(counts), func(f int) int { return counts[f] })
	want := []int{0, 0, 2, 2, 2, 4}
	for g, f := range want {
		if got := FieldOfChunk(starts, g); got != f {
			t.Fatalf("FieldOfChunk(%d) = %d, want %d", g, got, f)
		}
	}
}

// TestFieldOfChunkZeroAllocs guards the //pfpl:hotpath binary search.
func TestFieldOfChunkZeroAllocs(t *testing.T) {
	counts := []int{2, 0, 3, 0, 1}
	starts := ChunkStarts(len(counts), func(f int) int { return counts[f] })
	allocs := testing.AllocsPerRun(100, func() {
		if FieldOfChunk(starts, 3) != 2 {
			t.Fatal("wrong field")
		}
	})
	if allocs != 0 {
		t.Fatalf("FieldOfChunk allocates %v times per op", allocs)
	}
}
