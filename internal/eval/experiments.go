package eval

import (
	"fmt"
	"runtime"
	"sort"

	"pfpl/internal/core"
	"pfpl/internal/gpusim"
	"pfpl/internal/sdrbench"
	"pfpl/internal/stats"
)

// Table1 reproduces Table I: the systems used for the experiments. The CPU
// side reports the host this reproduction runs on; the GPU side lists the
// simulated device models.
func Table1() *Report {
	r := &Report{ID: "Table I", Title: "Systems used for experiments (host + simulated GPUs)"}
	r.Lines = append(r.Lines,
		fmt.Sprintf("Host CPU: %d logical cores, %s/%s, %s", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		"(The paper used a Threadripper 2950X and a dual Xeon Gold 6226R; CPU throughputs below are host-measured.)",
		"")
	rows := [][]string{}
	r.CSV = append(r.CSV, []string{"gpu", "sms", "cores_per_sm", "boost_ghz", "mem_gbs", "max_threads_per_block"})
	for _, m := range gpusim.Models {
		rows = append(rows, []string{m.Name, fmt.Sprint(m.SMs), fmt.Sprint(m.CoresPerSM),
			fmt.Sprintf("%.2f", m.BoostClockGHz), fmt.Sprintf("%.0f", m.MemBandwidthGBs), fmt.Sprint(m.MaxThreadsPerBlock)})
		r.CSV = append(r.CSV, rows[len(rows)-1])
	}
	r.Lines = append(r.Lines, table([]string{"Simulated GPU", "SMs", "Cores/SM", "Boost GHz", "Mem GB/s", "MaxThr/Blk"}, rows)...)
	return r
}

// Table2 reproduces Table II: the input suites, paper metadata alongside
// the generated synthetic equivalents.
func Table2(sc sdrbench.Scale) *Report {
	r := &Report{ID: "Table II", Title: "Input suites (paper metadata vs. generated synthetic equivalents)"}
	rows := [][]string{}
	r.CSV = append(r.CSV, []string{"suite", "description", "format", "paper_files", "paper_dims", "paper_mb", "gen_files", "gen_mb"})
	for _, s := range sdrbench.Suites(sc) {
		format := "Single"
		if s.Double {
			format = "Double"
		}
		genMB := fmt.Sprintf("%.1f", float64(s.TotalBytes())/1e6)
		row := []string{s.Name, s.Description, format, fmt.Sprint(s.PaperFiles), s.PaperDims, s.PaperSizeMB,
			fmt.Sprint(len(s.Files)), genMB}
		rows = append(rows, row)
		r.CSV = append(r.CSV, row)
	}
	r.Lines = table([]string{"Name", "Description", "Format", "Files(paper)", "Dims(paper)", "MB(paper)", "Files(gen)", "MB(gen)"}, rows)
	return r
}

// Table3 reproduces Table III: the declared feature matrix plus a measured
// error-bound audit (violations counted over a sample sweep at the four
// bounds).
func Table3(cfg Config) *Report {
	r := &Report{ID: "Table III", Title: "Supported features (declared per paper) and measured bound audit"}
	// Declared matrix. SZ3 appears once, as in the paper.
	rows := [][]string{}
	r.CSV = append(r.CSV, []string{"compressor", "abs", "rel", "noa", "float", "double", "cpu", "gpu"})
	seenSZ3 := false
	for _, c := range Registry() {
		name := c.Name
		if name == "SZ3-Serial" || name == "SZ3-OMP" {
			if seenSZ3 {
				continue
			}
			seenSZ3 = true
			name = "SZ3"
		}
		if name == "PFPL-Serial" || name == "PFPL-OMP" {
			continue // one PFPL row, from the CUDA entry
		}
		if name == "PFPL-CUDA" {
			name = "PFPL"
		}
		yn := func(b bool) string {
			if b {
				return "Y"
			}
			return "x"
		}
		row := []string{name, c.Caps.ABS.Mark(), c.Caps.REL.Mark(), c.Caps.NOA.Mark(),
			yn(c.Caps.Float), yn(c.Caps.Double), yn(c.Caps.CPU), yn(c.Caps.GPU)}
		rows = append(rows, row)
		r.CSV = append(r.CSV, row)
	}
	r.Lines = table([]string{"Compressor", "ABS", "REL", "NOA", "Float", "Double", "CPU", "GPU"}, rows)

	// Measured audit: violations per compressor and mode over the sweep.
	r.Lines = append(r.Lines, "", "Measured error-bound audit (total violations across files x bounds; '-' = unsupported):")
	type ck struct {
		name string
		mode core.Mode
	}
	totals := map[ck]int{}
	ran := map[ck]bool{}
	for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
		for _, m := range RunScatter(mode, false, cfg) {
			totals[ck{m.Compressor, mode}] += m.Violations
			ran[ck{m.Compressor, mode}] = true
		}
	}
	audit := [][]string{}
	for _, c := range Registry() {
		row := []string{c.Name}
		for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
			k := ck{c.Name, mode}
			if !ran[k] {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprint(totals[k]))
		}
		audit = append(audit, row)
	}
	r.Lines = append(r.Lines, table([]string{"Compressor", "ABS viol", "REL viol", "NOA viol"}, audit)...)
	return r
}

// figure builds one scatter figure: aggregated points plus the Pareto front
// per bound, like the paper's Figures 6-15.
func figure(id, title string, mode core.Mode, double bool, decompress bool, cfg Config) *Report {
	r := &Report{ID: id, Title: title}
	aggs := AggregateScatter(RunScatter(mode, double, cfg))
	r.CSV = append(r.CSV, []string{"compressor", "bound", "ratio", "throughput_gbs", "modelled", "violations", "pareto"})

	onFront := map[int]bool{}
	for _, bound := range Bounds {
		var pts []stats.Point
		var idxs []int
		for i, a := range aggs {
			if a.Bound != bound {
				continue
			}
			y := a.CompGBs
			if decompress {
				y = a.DecompGBs
			}
			pts = append(pts, stats.Point{Label: a.Compressor, X: a.Ratio, Y: y})
			idxs = append(idxs, i)
		}
		for _, fi := range stats.ParetoFront(pts) {
			onFront[idxs[fi]] = true
		}
	}
	rows := [][]string{}
	for i, a := range aggs {
		y := a.CompGBs
		if decompress {
			y = a.DecompGBs
		}
		front := ""
		if onFront[i] {
			front = "pareto"
		}
		row := []string{a.Compressor, fmt.Sprintf("%.0e", a.Bound), f2(a.Ratio), gbps(y, a.Modelled),
			fmt.Sprint(a.Modelled), fmt.Sprint(a.Violations), front}
		rows = append(rows, row)
		r.CSV = append(r.CSV, row)
	}
	dir := "compression"
	if decompress {
		dir = "decompression"
	}
	r.Lines = table([]string{"Compressor", "Bound", "Ratio", dir + " GB/s", "Modelled", "Violations", "Pareto"}, rows)
	r.Lines = append(r.Lines, "", "* = modelled GPU throughput (roofline; see DESIGN.md substitutions)")
	if plot := asciiScatter(aggs, decompress, onFront, 64, 16); plot != nil {
		r.Lines = append(r.Lines, "")
		r.Lines = append(r.Lines, plot...)
	}
	return r
}

// Fig6 is ABS compression: (a) single, (b) double, (c) System 2 (the CPU
// measurements repeat on the host; the modelled GPU becomes the A100).
func Fig6(cfg Config) []*Report {
	sys2 := cfg
	sys2.System2 = true
	return []*Report{
		figure("Fig 6a", "ABS compression, single precision (System 1)", core.ABS, false, false, cfg),
		figure("Fig 6b", "ABS compression, double precision (System 1)", core.ABS, true, false, cfg),
		figure("Fig 6c", "ABS compression, single precision (System 2: A100)", core.ABS, false, false, sys2),
	}
}

// Fig7 is ABS decompression, same system split as Fig6.
func Fig7(cfg Config) []*Report {
	sys2 := cfg
	sys2.System2 = true
	return []*Report{
		figure("Fig 7a", "ABS decompression, single precision (System 1)", core.ABS, false, true, cfg),
		figure("Fig 7b", "ABS decompression, double precision (System 1)", core.ABS, true, true, cfg),
		figure("Fig 7c", "ABS decompression, single precision (System 2: A100)", core.ABS, false, true, sys2),
	}
}

// Fig8 and Fig9: REL compression, single/double.
func Fig8(cfg Config) []*Report {
	return []*Report{
		figure("Fig 8", "REL compression, single precision", core.REL, false, false, cfg),
		figure("Fig 9", "REL compression, double precision", core.REL, true, false, cfg),
	}
}

// Fig10 and Fig11: REL decompression.
func Fig10(cfg Config) []*Report {
	return []*Report{
		figure("Fig 10", "REL decompression, single precision", core.REL, false, true, cfg),
		figure("Fig 11", "REL decompression, double precision", core.REL, true, true, cfg),
	}
}

// Fig12 and Fig13: NOA compression.
func Fig12(cfg Config) []*Report {
	return []*Report{
		figure("Fig 12", "NOA compression, single precision", core.NOA, false, false, cfg),
		figure("Fig 13", "NOA compression, double precision", core.NOA, true, false, cfg),
	}
}

// Fig14 and Fig15: NOA decompression.
func Fig14(cfg Config) []*Report {
	return []*Report{
		figure("Fig 14", "NOA decompression, single precision", core.NOA, false, true, cfg),
		figure("Fig 15", "NOA decompression, double precision", core.NOA, true, true, cfg),
	}
}

// Fig16 reproduces the PSNR-vs-ratio charts for the three bound types on
// single-precision data.
func Fig16(cfg Config) []*Report {
	return fig16(func(mode core.Mode) []Measurement { return RunScatter(mode, false, cfg) })
}

// fig16 builds Fig16's reports from the single-precision sweep of each
// mode.
func fig16(scatter func(core.Mode) []Measurement) []*Report {
	var out []*Report
	for _, mc := range []struct {
		id   string
		mode core.Mode
	}{{"Fig 16a", core.ABS}, {"Fig 16b", core.REL}, {"Fig 16c", core.NOA}} {
		r := &Report{ID: mc.id, Title: "Compression ratio vs PSNR, " + mc.mode.String() + ", single precision"}
		aggs := AggregateScatter(scatter(mc.mode))
		r.CSV = append(r.CSV, []string{"compressor", "bound", "ratio", "psnr_db"})
		rows := [][]string{}
		for _, a := range aggs {
			row := []string{a.Compressor, fmt.Sprintf("%.0e", a.Bound), f2(a.Ratio), f2(a.PSNR)}
			rows = append(rows, row)
			r.CSV = append(r.CSV, row)
		}
		r.Lines = table([]string{"Compressor", "Bound", "Ratio", "PSNR dB"}, rows)
		out = append(out, r)
	}
	return out
}

// GPUGenerations reproduces §V-F: PFPL's modelled throughput and DRAM
// utilization across the five GPU models.
func GPUGenerations(cfg Config) *Report {
	r := &Report{ID: "Sec V-F", Title: "PFPL across GPU generations (modelled) and profiling"}
	// Use a representative single-precision workload for the model inputs.
	suites := suitesFor(core.ABS, false, cfg.Scale)
	n := 0
	for _, s := range suites {
		for _, f := range s.Files {
			n += f.Len()
		}
	}
	comp := n // assume overall ratio ~4 at 1e-3 for the modelled traffic
	r.CSV = append(r.CSV, []string{"gpu", "compress_gbs", "decompress_gbs", "dram_utilization"})
	rows := [][]string{}
	for _, m := range gpusim.Models {
		cs := m.EstimateSeconds(n, 4, comp, false, false)
		ds := m.EstimateSeconds(n, 4, comp, true, false)
		util := m.DRAMUtilization(n, 4, comp, false, false)
		row := []string{m.Name,
			fmt.Sprintf("%.0f", float64(n*4)/cs/1e9),
			fmt.Sprintf("%.0f", float64(n*4)/ds/1e9),
			fmt.Sprintf("%.0f%%", util*100)}
		rows = append(rows, row)
		r.CSV = append(r.CSV, row)
	}
	r.Lines = table([]string{"GPU", "Compress GB/s*", "Decompress GB/s*", "DRAM util*"}, rows)
	r.Lines = append(r.Lines,
		"",
		"* modelled (roofline over SMs x cores x clock vs memory bandwidth).",
		"Performance correlates with compute; the 2070 Super's low resident-thread",
		"limit makes it perform like the older TITAN Xp; PFPL is not memory bound.")
	return r
}

// sortReportsByCompressor keeps deterministic output ordering helpers
// available to callers writing CSVs.
func sortMeasurements(ms []Measurement) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Compressor != b.Compressor {
			return a.Compressor < b.Compressor
		}
		if a.Bound != b.Bound {
			return a.Bound > b.Bound
		}
		if a.Suite != b.Suite {
			return a.Suite < b.Suite
		}
		return a.File < b.File
	})
}
