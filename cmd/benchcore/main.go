// Command benchcore measures the throughput of every PFPL lossless-stage
// kernel — word-parallel fast path and scalar reference — and of the
// quantizers — chunk kernels and the per-value loop — plus end-to-end
// compress/decompress throughput per executor, and writes the results as
// JSON in the same spirit as results/BENCH_serve.json.
//
// Usage:
//
//	go run ./cmd/benchcore [-quick] [-out results/BENCH_core.json]
//
// -quick shrinks the per-measurement budget for CI smoke passes; the
// committed results/BENCH_core.json should be regenerated with the default
// budget (see EXPERIMENTS.md).
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pfpl"
	"pfpl/internal/core"
	"pfpl/internal/core/ref"
)

// Result is one throughput measurement. Lossless-stage entries carry impl
// "fast"/"ref", quantizer entries "chunk"/"per_value"; executor entries
// carry the executor name.
type Result struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"` // "stage" or "executor"
	Stage      string  `json:"stage,omitempty"`
	Impl       string  `json:"impl,omitempty"`
	Executor   string  `json:"executor,omitempty"`
	Op         string  `json:"op,omitempty"`
	Precision  int     `json:"precision"`
	Dataset    string  `json:"dataset"`
	BytesPerOp int64   `json:"bytes_per_op"`
	NsPerOp    float64 `json:"ns_per_op"`
	GBPerS     float64 `json:"gb_per_s"`
}

// Speedup summarizes fast-over-reference (chunk-over-per-value for the
// quantizers) for one stage benchmark.
type Speedup struct {
	Name        string  `json:"name"`
	FastOverRef float64 `json:"fast_over_ref"`
}

// Report is the schema of results/BENCH_core.json.
type Report struct {
	Description string    `json:"description"`
	Date        string    `json:"date"`
	Commit      string    `json:"commit"`
	GoVersion   string    `json:"go_version"`
	GOARCH      string    `json:"goarch"`
	GOAMD64     string    `json:"goamd64"`
	NumCPU      int       `json:"num_cpu"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	ChunkBytes  int       `json:"chunk_bytes"`
	Budget      string    `json:"budget_per_measurement"`
	Stages      []Result  `json:"stages"`
	Executors   []Result  `json:"executors"`
	Speedups    []Speedup `json:"speedups"`
}

// measure times f repeatedly until the budget is met and returns ns/op.
func measure(budget time.Duration, f func()) float64 {
	f() // warmup
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= budget {
			return float64(elapsed.Nanoseconds()) / float64(iters)
		}
		if elapsed <= 0 {
			iters *= 64
			continue
		}
		// Scale to overshoot the budget by ~25%.
		next := int(float64(iters) * 1.25 * float64(budget) / float64(elapsed))
		if next <= iters {
			next = iters * 2
		}
		iters = next
	}
}

func gbps(bytesPerOp int64, nsPerOp float64) float64 {
	return float64(bytesPerOp) / nsPerOp // bytes/ns == GB/s
}

func stageResult(name, stage, impl string, precision int, dataset string, bytesPerOp int64, budget time.Duration, f func()) Result {
	ns := measure(budget, f)
	r := Result{
		Name: name, Kind: "stage", Stage: stage, Impl: impl,
		Precision: precision, Dataset: dataset,
		BytesPerOp: bytesPerOp, NsPerOp: ns, GBPerS: gbps(bytesPerOp, ns),
	}
	fmt.Printf("%-44s %10.0f ns/op %8.2f GB/s\n", name, ns, r.GBPerS)
	return r
}

// smoothWords32 are quantized bins of a smooth field — the shape the delta
// stage sees in production.
func smoothWords32(n int) []uint32 {
	p, err := core.NewParams(core.ABS, 1e-3, 0, false)
	if err != nil {
		panic(err)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = p.EncodeValue32(float32(math.Sin(float64(i) * 0.01)))
	}
	return out
}

func smoothWords64(n int) []uint64 {
	p, err := core.NewParams(core.ABS, 1e-6, 0, true)
	if err != nil {
		panic(err)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = p.EncodeValue64(math.Sin(float64(i) * 0.01))
	}
	return out
}

// shuffledBytes32 pushes smooth quantized words through delta+shuffle and
// serializes them — the realistic sparse input of the zero-elim stage.
func shuffledBytes32() []byte {
	words := smoothWords32(core.ChunkWords32)
	core.DeltaNegaForward32(words)
	core.BitShuffle32(words)
	data := make([]byte, core.ChunkBytes)
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	return data
}

// denseBytes is incompressible input: every byte nonzero, no repeats.
func denseBytes(n int) []byte {
	state := uint64(0x9E3779B97F4A7C15)
	out := make([]byte, n)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		b := byte(state >> 33)
		if b == 0 {
			b = 1
		}
		out[i] = b
	}
	return out
}

func stageBenchmarks(budget time.Duration) ([]Result, []Speedup) {
	var results []Result
	var speedups []Speedup
	pair := func(name, stage string, precision int, dataset string, bytesPerOp int64, fast, slow func()) {
		f := stageResult(name, stage, "fast", precision, dataset, bytesPerOp, budget, fast)
		r := stageResult(name+"_ref", stage, "ref", precision, dataset, bytesPerOp, budget, slow)
		results = append(results, f, r)
		speedups = append(speedups, Speedup{Name: name, FastOverRef: r.NsPerOp / f.NsPerOp})
	}

	// Stage 1: delta + negabinary.
	w32 := smoothWords32(core.ChunkWords32)
	buf32 := make([]uint32, len(w32))
	pair("delta_nega_forward/32", "delta", 32, "smooth", core.ChunkBytes,
		func() { copy(buf32, w32); core.DeltaNegaForward32(buf32) },
		func() { copy(buf32, w32); ref.DeltaNegaForward32(buf32) })
	resid32 := append([]uint32(nil), w32...)
	core.DeltaNegaForward32(resid32)
	pair("delta_nega_inverse/32", "delta", 32, "smooth", core.ChunkBytes,
		func() { copy(buf32, resid32); core.DeltaNegaInverse32(buf32) },
		func() { copy(buf32, resid32); ref.DeltaNegaInverse32(buf32) })
	w64 := smoothWords64(core.ChunkWords64)
	buf64 := make([]uint64, len(w64))
	pair("delta_nega_forward/64", "delta", 64, "smooth", core.ChunkBytes,
		func() { copy(buf64, w64); core.DeltaNegaForward64(buf64) },
		func() { copy(buf64, w64); ref.DeltaNegaForward64(buf64) })

	// Stage 2: bit shuffle.
	pair("bit_shuffle/32", "shuffle", 32, "smooth", core.ChunkBytes,
		func() { core.BitShuffle32(buf32) },
		func() { ref.BitShuffle32(buf32) })
	pair("bit_shuffle/64", "shuffle", 64, "smooth", core.ChunkBytes,
		func() { core.BitShuffle64(buf64) },
		func() { ref.BitShuffle64(buf64) })

	// Stage 3: zero-byte elimination, on realistic sparse bytes and on the
	// incompressible worst case.
	var s core.ZeroElimScratch
	out := make([]byte, 0, core.MaxChunkPayload)
	for _, ds := range []struct {
		name string
		data []byte
	}{
		{"shuffled-smooth", shuffledBytes32()},
		{"dense", denseBytes(core.ChunkBytes)},
	} {
		data := ds.data
		pair("zero_elim_encode/32/"+ds.name, "zeroelim", 32, ds.name, int64(len(data)),
			func() { out = core.ZeroElimEncodeScratch(data, out[:0], &s) },
			func() { out = ref.ZeroElimEncode(data, out[:0]) })
		enc := core.ZeroElimEncodeScratch(data, nil, &s)
		dst := make([]byte, len(data))
		pair("zero_elim_decode/32/"+ds.name, "zeroelim", 32, ds.name, int64(len(data)),
			func() {
				if _, err := core.ZeroElimDecodeScratch(enc, dst, &s); err != nil {
					panic(err)
				}
			},
			func() {
				if _, err := ref.ZeroElimDecode(enc, dst); err != nil {
					panic(err)
				}
			})
	}
	return results, speedups
}

func executorBenchmarks(budget time.Duration) []Result {
	var results []Result
	const n = 1 << 20 // 4 MiB of float32
	src := make([]float32, n)
	for i := range src {
		x := float64(i) * 1e-4
		src[i] = float32(math.Sin(x) + 0.3*math.Cos(9*x))
	}
	devices := []struct {
		name string
		dev  pfpl.Device
	}{
		{"serial", pfpl.Serial()},
		{"cpu", pfpl.CPU(0)},
		{"gpusim-4090", pfpl.GPU(pfpl.RTX4090)},
	}
	for _, d := range devices {
		dev := d.dev
		bytesPerOp := int64(len(src)) * 4
		ns := measure(budget, func() {
			if _, err := dev.Compress32(src, pfpl.ABS, 1e-3); err != nil {
				panic(err)
			}
		})
		r := Result{
			Name: "compress/32/" + d.name, Kind: "executor", Executor: d.name,
			Op: "compress", Precision: 32, Dataset: "smooth",
			BytesPerOp: bytesPerOp, NsPerOp: ns, GBPerS: gbps(bytesPerOp, ns),
		}
		fmt.Printf("%-44s %10.0f ns/op %8.2f GB/s\n", r.Name, ns, r.GBPerS)
		results = append(results, r)

		comp, err := dev.Compress32(src, pfpl.ABS, 1e-3)
		if err != nil {
			panic(err)
		}
		dst := make([]float32, n)
		ns = measure(budget, func() {
			if _, err := dev.Decompress32(comp, dst); err != nil {
				panic(err)
			}
		})
		r = Result{
			Name: "decompress/32/" + d.name, Kind: "executor", Executor: d.name,
			Op: "decompress", Precision: 32, Dataset: "smooth",
			BytesPerOp: bytesPerOp, NsPerOp: ns, GBPerS: gbps(bytesPerOp, ns),
		}
		fmt.Printf("%-44s %10.0f ns/op %8.2f GB/s\n", r.Name, ns, r.GBPerS)
		results = append(results, r)
	}
	return results
}

func run(budget time.Duration, outPath, batchOutPath string, batchFields int) error {
	stages, speedups := stageBenchmarks(budget)
	qstages, qspeedups := quantBenchmarks(budget)
	stages, speedups = append(stages, qstages...), append(speedups, qspeedups...)
	executors := executorBenchmarks(budget)
	commit, goamd64 := provenance()
	rep := Report{
		Description: "PFPL core kernel throughput: per-stage fast (word-parallel) vs ref (scalar reference) GB/s, quantizer chunk kernels vs the per-value loop on the first chunk of every ScaleSmall SDRBench file (REL 1e-3, ABS 1e-3 x chunk range), plus end-to-end executor throughput on a 4 MiB smooth float32 field (ABS 1e-3). Regenerate in isolation: go run ./cmd/benchcore -out results/BENCH_core.json (see EXPERIMENTS.md).",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Commit:      commit,
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		GOAMD64:     goamd64,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ChunkBytes:  core.ChunkBytes,
		Budget:      budget.String(),
		Stages:      stages,
		Executors:   executors,
		Speedups:    speedups,
	}
	if err := writeJSON(&rep, outPath); err != nil {
		return err
	}
	if batchOutPath == "" {
		return nil
	}
	brep := batchReport(budget, batchFields, batchFieldValues)
	return writeJSON(&brep, batchOutPath)
}

func writeJSON(v any, outPath string) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(outPath, buf, 0o644)
}

func main() {
	quick := flag.Bool("quick", false, "short measurement budget and small batch scenario (CI smoke pass)")
	out := flag.String("out", "results/BENCH_core.json", "output path, or - for stdout")
	batchOut := flag.String("batch-out", "results/BENCH_batch.json", "batch-scenario output path, - for stdout, empty to skip")
	flag.Parse()
	budget := 300 * time.Millisecond
	batchFields := batchFieldsFull
	if *quick {
		budget = 25 * time.Millisecond
		batchFields = batchFieldsQuick
	}
	if err := run(budget, *out, *batchOut, batchFields); err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
}
