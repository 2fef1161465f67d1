package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pfpl"
	"pfpl/internal/core"
)

// Many-small-fields scenario: the DAQ-style workload the batch path exists
// for. The default shape is 4096 fields of 16 KB (one chunk) each — 64 MiB
// of float32 — where per-field dispatch overhead rivals the encoding work
// itself. The batch path runs all fields through one dispatch; the per-field
// path is the same device called once per field. Output bytes are identical
// (each batch field payload is the single-field stream), so the comparison
// is pure scheduling cost.

// BatchResult is one batch-vs-per-field measurement pair for an executor.
type BatchResult struct {
	Executor     string  `json:"executor"`
	Op           string  `json:"op"`
	Fields       int     `json:"fields"`
	FieldBytes   int     `json:"field_bytes"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	PerFieldNs   float64 `json:"per_field_ns_per_op"`
	BatchNs      float64 `json:"batch_ns_per_op"`
	PerFieldGBPS float64 `json:"per_field_gb_per_s"`
	BatchGBPS    float64 `json:"batch_gb_per_s"`
	Speedup      float64 `json:"batch_over_per_field"`
}

// BatchReport is the schema of results/BENCH_batch.json.
type BatchReport struct {
	Description string        `json:"description"`
	Date        string        `json:"date"`
	Commit      string        `json:"commit"`
	GoVersion   string        `json:"go_version"`
	GOARCH      string        `json:"goarch"`
	GOAMD64     string        `json:"goamd64"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Fields      int           `json:"fields"`
	FieldBytes  int           `json:"field_bytes"`
	Budget      string        `json:"budget_per_measurement"`
	Results     []BatchResult `json:"results"`
}

// makeBatchFields builds numFields smooth fields of fieldValues float32 each,
// phase-shifted so neighboring fields differ.
func makeBatchFields(numFields, fieldValues int) [][]float32 {
	fields := make([][]float32, numFields)
	for f := range fields {
		vals := make([]float32, fieldValues)
		phase := float64(f) * 0.1
		for i := range vals {
			x := float64(i)*1e-3 + phase
			vals[i] = float32(math.Sin(x) + 0.3*math.Cos(9*x))
		}
		fields[f] = vals
	}
	return fields
}

func batchBenchmarks(budget time.Duration, numFields, fieldValues int) []BatchResult {
	fields := makeBatchFields(numFields, fieldValues)
	bytesPerOp := int64(numFields) * int64(fieldValues) * 4
	fieldBytes := fieldValues * 4

	pool := pfpl.NewCPUPool(0)
	defer pool.Close()
	devices := []struct {
		name string
		dev  pfpl.Device
	}{
		{"cpu", pfpl.CPU(0)},
		{"cpu-pool", pool},
		{"gpusim-4090", pfpl.GPU(pfpl.RTX4090)},
	}
	opts := pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3}

	var results []BatchResult
	for _, d := range devices {
		dev := d.dev
		o := opts
		o.Device = dev

		perFieldNs := measure(budget, func() {
			for _, f := range fields {
				if _, err := dev.Compress32(f, pfpl.ABS, 1e-3); err != nil {
					panic(err)
				}
			}
		})
		batchNs := measure(budget, func() {
			if _, err := pfpl.CompressBatch32(fields, o); err != nil {
				panic(err)
			}
		})
		r := BatchResult{
			Executor: d.name, Op: "compress", Fields: numFields, FieldBytes: fieldBytes,
			BytesPerOp: bytesPerOp, PerFieldNs: perFieldNs, BatchNs: batchNs,
			PerFieldGBPS: gbps(bytesPerOp, perFieldNs), BatchGBPS: gbps(bytesPerOp, batchNs),
			Speedup: perFieldNs / batchNs,
		}
		fmt.Printf("batch-compress/%-22s per-field %8.2f GB/s  batch %8.2f GB/s  %5.2fx\n",
			d.name, r.PerFieldGBPS, r.BatchGBPS, r.Speedup)
		results = append(results, r)

		comp, err := pfpl.CompressBatch32(fields, o)
		if err != nil {
			panic(err)
		}
		singles := make([][]byte, numFields)
		ob, err := pfpl.OpenBatch(comp)
		if err != nil {
			panic(err)
		}
		for i := range singles {
			fc, err := ob.Field(i)
			if err != nil {
				panic(err)
			}
			singles[i] = fc
		}
		dst := make([]float32, fieldValues)
		perFieldNs = measure(budget, func() {
			for _, fc := range singles {
				if _, err := dev.Decompress32(fc, dst); err != nil {
					panic(err)
				}
			}
		})
		batchNs = measure(budget, func() {
			if _, err := pfpl.DecompressBatch32(comp, o); err != nil {
				panic(err)
			}
		})
		r = BatchResult{
			Executor: d.name, Op: "decompress", Fields: numFields, FieldBytes: fieldBytes,
			BytesPerOp: bytesPerOp, PerFieldNs: perFieldNs, BatchNs: batchNs,
			PerFieldGBPS: gbps(bytesPerOp, perFieldNs), BatchGBPS: gbps(bytesPerOp, batchNs),
			Speedup: perFieldNs / batchNs,
		}
		fmt.Printf("batch-decompress/%-20s per-field %8.2f GB/s  batch %8.2f GB/s  %5.2fx\n",
			d.name, r.PerFieldGBPS, r.BatchGBPS, r.Speedup)
		results = append(results, r)
	}
	return results
}

func batchReport(budget time.Duration, numFields, fieldValues int) BatchReport {
	commit, goamd64 := provenance()
	return BatchReport{
		Description: fmt.Sprintf("PFPL batch path on the many-small-fields (DAQ) shape: %d fields x %d KB float32 (ABS 1e-3), batch (one dispatch over all fields' chunks) vs per-field (one dispatch per field) on the same executor. Regenerate: go run ./cmd/benchcore -batch-out results/BENCH_batch.json (see EXPERIMENTS.md).", numFields, fieldValues*4/1024),
		Date:        time.Now().UTC().Format("2006-01-02"),
		Commit:      commit,
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		GOAMD64:     goamd64,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Fields:      numFields,
		FieldBytes:  fieldValues * 4,
		Budget:      budget.String(),
		Results:     batchBenchmarks(budget, numFields, fieldValues),
	}
}

// batchFieldValues is the per-field element count of the scenario: one
// 16 KB chunk per field.
const batchFieldValues = core.ChunkWords32

// Field counts for the committed run and the CI quick pass.
const (
	batchFieldsFull  = 4096
	batchFieldsQuick = 256
)
