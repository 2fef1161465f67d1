// Pipeline walks one 8-value example through every PFPL stage, printing the
// intermediate representations — the worked examples of the paper's
// Figures 2 (quantization), 3 (difference coding and negabinary), 4 (bit
// shuffling), and 5 (zero-byte elimination).
package main

import (
	"encoding/binary"
	"fmt"
	"strings"

	"pfpl/internal/core"
)

func main() {
	// Fig. 2's setting: ABS quantization with an error bound of 0.01.
	input := []float32{0.030, 0.031, 0.050, 0.052, 0.070, 0.071, 0.091, 0.090}
	const bound = 0.01
	p, err := core.NewParams(core.ABS, bound, 0, false)
	if err != nil {
		panic(err)
	}

	fmt.Println("Stage 1 - ABS quantization (error bound 0.01, bin width 0.02):")
	fmt.Printf("  %-10s %-12s %-14s %-10s\n", "value", "bin number", "reconstructed", "error")
	words := make([]uint32, len(input))
	for i, v := range input {
		words[i] = core.EncodeValue[float32, uint32](&p, v)
		r := core.DecodeValue[float32](&p, words[i])
		fmt.Printf("  %-10.3f %-12d %-14.3f %-10.4f\n", v, int32(words[i]), r, float64(v)-float64(r))
	}
	fmt.Println("  (bin numbers live in the denormal range of the float32 encoding space,")
	fmt.Println("   so they coexist with losslessly stored values in one stream)")

	fmt.Println("\nStage 2a - difference coding (each value minus its predecessor):")
	deltas := make([]int32, len(words))
	prev := uint32(0)
	for i, w := range words {
		deltas[i] = int32(w - prev)
		prev = w
	}
	fmt.Printf("  bins:      %v\n", asInts(words))
	fmt.Printf("  residuals: %v\n", deltas)

	fmt.Println("\nStage 2b - negabinary (base -2): small +/- residuals get leading zeros:")
	nega := make([]uint32, len(words))
	copy(nega, words)
	core.DeltaNegaForward(nega)
	for i, d := range deltas {
		fmt.Printf("  %3d -> %s\n", d, bitsOf(nega[i], 8))
	}

	fmt.Println("\nStage 3 - bit shuffle (32x32 transpose; word k collects bit k of every residual),")
	fmt.Println("          written straight to little-endian bytes:")
	padded := make([]uint32, 32)
	copy(padded, nega)
	data := make([]byte, 128)
	core.ShufflePack32(data, padded)
	nonzero := 0
	for k := range padded {
		if w := binary.LittleEndian.Uint32(data[k*4:]); w != 0 {
			fmt.Printf("  bit-plane %2d: %s\n", k, bitsOf(w, 8))
			nonzero++
		}
	}
	fmt.Printf("  %d of 32 bit-planes are nonzero; the rest are all-zero words\n", nonzero)

	fmt.Println("\nStage 4 - zero-byte elimination (bitmap of nonzero bytes + packed bytes):")
	enc := core.ZeroElimEncode(data, nil)
	nz := 0
	for _, b := range data {
		if b != 0 {
			nz++
		}
	}
	fmt.Printf("  input: %d bytes, %d nonzero\n", len(data), nz)
	fmt.Printf("  encoded: %d bytes (bitmaps re-compressed through %d iterations)\n",
		len(enc), core.BitmapLevels)

	fmt.Println("\nWhole pipeline on the example chunk:")
	var s core.Scratch[float32, uint32]
	payload, raw := core.EncodeChunk(&p, input, &s)
	fmt.Printf("  %d float32 values (%d bytes) -> %d bytes (raw fallback: %v)\n",
		len(input), len(input)*4, len(payload), raw)
	fmt.Println("  (tiny inputs carry fixed bitmap overhead; on full 16 kB chunks the")
	fmt.Println("   same stages compress smooth data by an order of magnitude)")
}

func asInts(ws []uint32) []int32 {
	out := make([]int32, len(ws))
	for i, w := range ws {
		out[i] = int32(w)
	}
	return out
}

func bitsOf(w uint32, n int) string {
	var b strings.Builder
	for i := n - 1; i >= 0; i-- {
		if w>>uint(i)&1 != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return "..." + b.String()
}
