package eval

import (
	"encoding/binary"
	"fmt"

	"pfpl/internal/core"
	"pfpl/internal/sdrbench"
	"pfpl/internal/stats"
)

// Ablation reproduces the design-choice claims of §III:
//
//   - "Removing any one of these transformations decreases the compression
//     ratio by a substantial factor" (§III.D): the pipeline is re-run with
//     each lossless stage disabled.
//   - The error-bound guarantee costs ~5% compression ratio on average and
//     no throughput (§III.B): measured by disabling the immediate
//     verification.
func Ablation(cfg Config) *Report {
	r := &Report{ID: "Ablation", Title: "PFPL stage and guarantee ablations (ABS 1e-3, single precision)"}
	variants := []string{"full", "no-delta", "no-negabinary", "no-shuffle", "no-zeroelim", "no-guarantee"}

	// Per-suite geometric means of per-file ratios for each variant.
	groups := make(map[string][][]float64)
	for _, s := range suitesFor(core.ABS, false, cfg.Scale) {
		perSuite := make(map[string][]float64)
		for _, f := range s.Files {
			src := f.Data32()
			for _, v := range variants {
				perSuite[v] = append(perSuite[v], ablationRatio(src, v))
			}
			f.Release()
		}
		for _, v := range variants {
			groups[v] = append(groups[v], perSuite[v])
		}
	}
	full := stats.GeoMeanOfGroups(groups["full"])
	rows := [][]string{}
	r.CSV = append(r.CSV, []string{"variant", "ratio", "vs_full"})
	for _, v := range variants {
		ratio := stats.GeoMeanOfGroups(groups[v])
		row := []string{v, f2(ratio), fmt.Sprintf("%.1f%%", (ratio/full-1)*100)}
		rows = append(rows, row)
		r.CSV = append(r.CSV, row)
	}
	r.Lines = table([]string{"Variant", "Geo-mean ratio", "vs full"}, rows)
	r.Lines = append(r.Lines,
		"",
		"no-guarantee disables the immediate decode-and-verify step (§III.B);",
		"the ratio gain is the measured cost of guaranteeing the bound.")

	// §III.C ablation: the portable log/exp approximations vs libm on REL.
	var portGroups, libmGroups [][]float64
	for _, s := range suitesFor(core.REL, false, cfg.Scale) {
		var port, libm []float64
		for _, f := range s.Files {
			src := f.Data32()
			port = append(port, relAblationRatio(src, false))
			libm = append(libm, relAblationRatio(src, true))
			f.Release()
		}
		portGroups = append(portGroups, port)
		libmGroups = append(libmGroups, libm)
	}
	portable := stats.GeoMeanOfGroups(portGroups)
	withLibm := stats.GeoMeanOfGroups(libmGroups)
	r.Lines = append(r.Lines, "", "Portable-math cost on REL 1e-3 (§III.C):")
	mathRows := [][]string{
		{"portable log/exp (shipping)", f2(portable), "baseline"},
		{"libm log/exp (non-portable)", f2(withLibm), fmt.Sprintf("%+.1f%%", (withLibm/portable-1)*100)},
	}
	r.Lines = append(r.Lines, table([]string{"REL math", "Geo-mean ratio", "vs portable"}, mathRows)...)
	r.CSV = append(r.CSV, []string{"rel-portable", f2(portable), "baseline"},
		[]string{"rel-libm", f2(withLibm), fmt.Sprintf("%+.1f%%", (withLibm/portable-1)*100)})
	return r
}

// relAblationRatio measures the REL pipeline ratio with either the portable
// approximations or libm.
func relAblationRatio(src []float32, useLibm bool) float64 {
	p, err := core.NewParams(core.REL, 1e-3, 0, false)
	if err != nil {
		return 0
	}
	p.UseLibm = useLibm
	total := 0
	var s core.Scratch[float32, uint32]
	for lo := 0; lo < len(src); lo += core.ChunkWords32 {
		hi := min(lo+core.ChunkWords32, len(src))
		payload, _ := core.EncodeChunk(&p, src[lo:hi], &s)
		total += len(payload)
	}
	if total == 0 {
		return 0
	}
	return float64(len(src)*4) / float64(total)
}

// ablationRatio compresses src through the selected pipeline variant and
// returns the compression ratio (chunk payloads only; the container
// overhead is identical across variants).
func ablationRatio(src []float32, variant string) float64 {
	p, err := core.NewParams(core.ABS, 1e-3, 0, false)
	if err != nil {
		return 0
	}
	if variant == "no-guarantee" {
		p.SkipVerify = true
	}
	total := 0
	words := make([]uint32, core.ChunkWords32)
	bytesBuf := make([]byte, core.ChunkBytes)
	for lo := 0; lo < len(src); lo += core.ChunkWords32 {
		hi := min(lo+core.ChunkWords32, len(src))
		n := hi - lo
		for i := 0; i < n; i++ {
			words[i] = core.EncodeValue[float32, uint32](&p, src[lo+i])
		}
		w := words[:n]
		switch variant {
		case "no-delta":
			// Keep negabinary of the raw words to isolate the delta step.
			for i := range w {
				w[i] = negaOnly(w[i])
			}
		case "no-negabinary":
			deltaOnly(w)
		default:
			core.DeltaNegaForward(w)
		}
		padded := core.PaddedWords[uint32](n)
		for i := n; i < padded; i++ {
			words[i] = 0
		}
		if variant == "no-shuffle" {
			for i := 0; i < padded; i++ {
				binary.LittleEndian.PutUint32(bytesBuf[i*4:], words[i])
			}
		} else {
			core.ShufflePack32(bytesBuf, words[:padded])
		}
		var size int
		if variant == "no-zeroelim" {
			size = padded * 4
		} else {
			size = len(core.ZeroElimEncode(bytesBuf[:padded*4], nil))
		}
		if size > n*4 {
			size = n * 4 // raw-chunk fallback caps expansion in all variants
		}
		total += size
	}
	if total == 0 {
		return 0
	}
	return float64(len(src)*4) / float64(total)
}

// negaOnly applies negabinary conversion without differencing.
func negaOnly(w uint32) uint32 {
	return (w + 0xAAAAAAAA) ^ 0xAAAAAAAA
}

// deltaOnly applies differencing without negabinary conversion.
func deltaOnly(a []uint32) {
	prev := uint32(0)
	for i, w := range a {
		a[i] = w - prev
		prev = w
	}
}

// AllSuitesForAblation exposes the ablation workload size for tests.
func AllSuitesForAblation(sc sdrbench.Scale) int {
	n := 0
	for _, s := range suitesFor(core.ABS, false, sc) {
		for _, f := range s.Files {
			n += f.Len()
		}
	}
	return n
}
