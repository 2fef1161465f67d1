package gpusim

// Block-wide scan primitives. The CUDA implementation of PFPL uses
// work-efficient block scans (upsweep/downsweep over shared memory) for the
// delta decoder and the compaction offsets of the zero-elimination stage
// (paper §III.E). The simulator implements the same Blelloch tree so the
// operation order — and therefore the result for any associative operation,
// including wrapping integer addition — matches a real block execution.

// scalar is an element the block scans accept: a compaction count or a
// lane word of either precision (summed with wrapping addition).
type scalar interface{ int | uint32 | uint64 }

// BlockExclusiveScan computes the exclusive prefix sum of v in place and
// returns the total. len(v) need not be a power of two.
func BlockExclusiveScan[E scalar](v []E) E {
	n := len(v)
	if n == 0 {
		return 0
	}
	// Pad to a power of two in a scratch tree, as shared memory would be.
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	tree := make([]E, p2)
	copy(tree, v)
	// Upsweep.
	for d := 1; d < p2; d <<= 1 {
		for i := 2*d - 1; i < p2; i += 2 * d {
			tree[i] += tree[i-d]
		}
	}
	total := tree[p2-1]
	tree[p2-1] = 0
	// Downsweep.
	for d := p2 >> 1; d >= 1; d >>= 1 {
		for i := 2*d - 1; i < p2; i += 2 * d {
			t := tree[i-d]
			tree[i-d] = tree[i]
			tree[i] += t
		}
	}
	copy(v, tree[:n])
	return total
}

// BlockInclusiveScan computes the inclusive prefix sum of v in place — the
// scan the delta decoder needs: the reconstructed word i is the wrapping
// sum of residuals 0..i. It shifts the exclusive scan left one and appends
// the total, as the CUDA kernels do with a final shuffle.
func BlockInclusiveScan[E scalar](v []E) {
	if len(v) == 0 {
		return
	}
	total := BlockExclusiveScan(v)
	copy(v, v[1:])
	v[len(v)-1] = total
}
