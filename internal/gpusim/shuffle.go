package gpusim

import "pfpl/internal/bits"

// Warp-shuffle primitives. The CUDA implementation of PFPL's bit shuffle
// exchanges data between the threads of a warp with shuffle instructions
// instead of shared memory (§III.E: "They employ log2(wordsize) shuffling
// steps, which are implemented using warp shuffle instructions"). The
// simulator models a warp as an array of lane registers and executes the
// same butterfly exchange; tests assert the result equals the library bit
// transpose used by the CPU path, which is exactly the cross-device
// equivalence the paper's design depends on.

// warpShuffleXor models __shfl_xor_sync: lane l of out receives the value
// held by lane l^mask of lanes. All lanes read the pre-exchange snapshot,
// as the hardware instruction does.
func warpShuffleXor[W bits.Word](lanes, out []W, mask int) {
	for l := range out {
		out[l] = lanes[l^mask]
	}
}

// TransposeWarpShuffle transposes the square bit matrix held by a warp of
// W lanes (lane l holds row l): 32 lanes of uint32, or for double precision
// the 64 lanes of a cooperating warp pair of uint64 (§III.E). It runs
// log2(len(lanes)) shuffle-and-merge butterfly steps, and the result
// matches bits.Transpose32/64: bit j of lane i becomes bit i of lane j.
func TransposeWarpShuffle[W bits.Word](lanes []W) {
	var buf [64]W
	partner := buf[:len(lanes)]
	for s := len(lanes) / 2; s > 0; s >>= 1 {
		// m selects the bit positions whose index has bit s clear.
		m := ^W(0) / (W(1)<<s + 1)
		warpShuffleXor(lanes, partner, s)
		for l := range lanes {
			if l&s == 0 {
				lanes[l] = lanes[l]&m | partner[l]&m<<s
			} else {
				lanes[l] = lanes[l]&^m | partner[l]&^m>>s
			}
		}
	}
}
