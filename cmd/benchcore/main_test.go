package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunEmitsValidReport runs the whole harness at a tiny budget and
// checks the JSON schema: every lossless stage has a fast and a ref entry,
// every quantizer row a chunk and a per-value entry, every measurement
// reports positive throughput, the zero-elim and quantizer speedups are
// present (the acceptance numbers the optimized kernels are pinned to), and
// the report carries its provenance.
func TestRunEmitsValidReport(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement pass skipped in short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	batchOut := filepath.Join(t.TempDir(), "bench_batch.json")
	if err := run(2*time.Millisecond, out, batchOut, 4); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Stages) == 0 || len(rep.Executors) == 0 || len(rep.Speedups) == 0 {
		t.Fatalf("empty report sections: %d stages, %d executors, %d speedups",
			len(rep.Stages), len(rep.Executors), len(rep.Speedups))
	}
	impls := map[string]map[string]bool{}
	for _, r := range rep.Stages {
		if !(r.GBPerS > 0) || !(r.NsPerOp > 0) || r.BytesPerOp <= 0 {
			t.Errorf("%s: non-positive measurement %+v", r.Name, r)
		}
		if impls[r.Stage] == nil {
			impls[r.Stage] = map[string]bool{}
		}
		impls[r.Stage][r.Impl] = true
	}
	for _, stage := range []string{"delta", "shuffle", "zeroelim"} {
		if !impls[stage]["fast"] || !impls[stage]["ref"] {
			t.Errorf("stage %q missing fast or ref entries: %v", stage, impls[stage])
		}
	}
	// The quantizer rows: chunk kernel and per-value loop for every stage,
	// mode and precision, each with its speedup entry.
	names := map[string]bool{}
	for _, r := range rep.Stages {
		names[r.Name] = true
	}
	speedups := map[string]bool{}
	for _, s := range rep.Speedups {
		speedups[s.Name] = true
	}
	for _, stage := range []string{"quantize", "dequantize"} {
		for _, mode := range []string{"abs", "rel"} {
			for _, prec := range []string{"32", "64"} {
				name := stage + "/" + mode + "/" + prec
				if !names[name] || !names[name+"/per_value"] || !speedups[name] {
					t.Errorf("quantizer row %s: chunk %v, per_value %v, speedup %v",
						name, names[name], names[name+"/per_value"], speedups[name])
				}
			}
		}
	}
	// Provenance: which code ran, built how, on how many CPUs.
	if rep.Commit == "" || rep.GoVersion == "" || rep.NumCPU <= 0 || rep.GOMAXPROCS <= 0 {
		t.Errorf("incomplete provenance: commit %q, go %q, num_cpu %d, gomaxprocs %d",
			rep.Commit, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS)
	}
	if rep.GOARCH == "amd64" && rep.GOAMD64 == "" {
		t.Error("amd64 report without a GOAMD64 level")
	}
	sawZeroElim := false
	for _, s := range rep.Speedups {
		if s.FastOverRef <= 0 {
			t.Errorf("speedup %s is non-positive: %g", s.Name, s.FastOverRef)
		}
		if s.Name == "zero_elim_encode/32/shuffled-smooth" {
			sawZeroElim = true
		}
	}
	if !sawZeroElim {
		t.Error("zero-elim encode speedup entry missing")
	}
	for _, r := range rep.Executors {
		if !(r.GBPerS > 0) {
			t.Errorf("%s: non-positive throughput", r.Name)
		}
	}

	// Batch report schema: every executor reports both ops with positive
	// throughput on both sides of the batch-vs-per-field comparison.
	bbuf, err := os.ReadFile(batchOut)
	if err != nil {
		t.Fatal(err)
	}
	var brep BatchReport
	if err := json.Unmarshal(bbuf, &brep); err != nil {
		t.Fatalf("invalid batch JSON: %v", err)
	}
	if len(brep.Results) == 0 {
		t.Fatal("empty batch report")
	}
	ops := map[string]int{}
	for _, r := range brep.Results {
		if !(r.PerFieldGBPS > 0) || !(r.BatchGBPS > 0) || !(r.Speedup > 0) {
			t.Errorf("batch %s/%s: non-positive measurement %+v", r.Executor, r.Op, r)
		}
		ops[r.Op]++
	}
	if ops["compress"] == 0 || ops["decompress"] == 0 {
		t.Errorf("batch report missing an op side: %v", ops)
	}
}
