package eval

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"pfpl/internal/core"
	"pfpl/internal/sdrbench"
)

func testCfg() Config { return capFiles(Config{Scale: sdrbench.ScaleSmall, Reps: 1}) }

// scatter returns RunScatter(mode, false, testCfg()), computed once per
// mode per test binary: the guarantee audit, the scatter-structure tests
// and Fig16 assert on the same sweeps. Callers must treat the result as
// read-only.
func scatter(mode core.Mode) []Measurement {
	s := &scatterRuns[mode]
	s.once.Do(func() { s.ms = RunScatter(mode, false, testCfg()) })
	return s.ms
}

var scatterRuns [core.NOA + 1]struct {
	once sync.Once
	ms   []Measurement
}

// capFiles truncates each suite to one file when the race detector is on,
// keeping the full eval sweep inside the default go test timeout (see
// race_on_test.go).
func capFiles(c Config) Config {
	if raceEnabled && c.MaxFilesPerSuite == 0 {
		c.MaxFilesPerSuite = 1
	}
	return c
}

func TestRegistryShape(t *testing.T) {
	reg := Registry()
	if len(reg) != 11 {
		t.Fatalf("registry has %d entries, want 11 (8 paper rows with SZ3 split + 3 PFPL executors)", len(reg))
	}
	names := map[string]bool{}
	for _, c := range reg {
		if names[c.Name] {
			t.Errorf("duplicate name %s", c.Name)
		}
		names[c.Name] = true
		if c.C32 == nil || c.D32 == nil {
			t.Errorf("%s: missing float32 hooks", c.Name)
		}
		if c.Caps.Double && (c.C64 == nil || c.D64 == nil) {
			t.Errorf("%s: declares double support without hooks", c.Name)
		}
	}
	for _, want := range []string{"ZFP", "SZ2", "SZ3-Serial", "SZ3-OMP", "MGARD-X", "SPERR", "FZ-GPU", "cuSZp", "PFPL-Serial", "PFPL-OMP", "PFPL-CUDA"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	if _, err := Find("PFPL-CUDA"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestPFPLGuaranteeAuditZeroViolations(t *testing.T) {
	// The central Table III property: the three PFPL executors never
	// violate any bound type on any suite.
	for _, mode := range []core.Mode{core.ABS, core.REL, core.NOA} {
		for _, m := range scatter(mode) {
			if !strings.HasPrefix(m.Compressor, "PFPL") {
				continue
			}
			if m.Violations != 0 {
				t.Errorf("%s %v %g on %s/%s: %d violations", m.Compressor, mode, m.Bound, m.Suite, m.File, m.Violations)
			}
		}
	}
}

func TestScatterStructureABS(t *testing.T) {
	ms := scatter(core.ABS)
	if len(ms) == 0 {
		t.Fatal("no measurements")
	}
	bySuite := map[string]bool{}
	byComp := map[string]bool{}
	for _, m := range ms {
		bySuite[m.Suite] = true
		byComp[m.Compressor] = true
		if m.Ratio <= 0 || m.CompGBs <= 0 || m.DecompGBs <= 0 {
			t.Fatalf("%s/%s: non-positive metrics %+v", m.Compressor, m.File, m)
		}
	}
	// EXAALT and HACC excluded for ABS (paper §V-B).
	if bySuite["EXAALT Copper"] || bySuite["HACC"] {
		t.Error("non-3D suites not excluded from ABS")
	}
	// FZ-GPU does not do ABS; SZ3 and cuSZp do.
	if byComp["FZ-GPU"] {
		t.Error("FZ-GPU should not appear in ABS results")
	}
	for _, want := range []string{"SZ3-Serial", "cuSZp", "PFPL-CUDA", "SPERR", "ZFP", "MGARD-X"} {
		if !byComp[want] {
			t.Errorf("%s missing from ABS results", want)
		}
	}

	aggs := AggregateScatter(ms)
	if len(aggs) == 0 {
		t.Fatal("no aggregates")
	}
	perComp := map[string]int{}
	for _, a := range aggs {
		perComp[a.Compressor]++
		if a.Ratio <= 0 {
			t.Errorf("%s: bad aggregate ratio", a.Compressor)
		}
	}
	for c, n := range perComp {
		if n != len(Bounds) {
			t.Errorf("%s: %d aggregate points, want %d", c, n, len(Bounds))
		}
	}
}

func TestScatterRELOnlyThreeCompressors(t *testing.T) {
	ms := scatter(core.REL)
	byComp := map[string]bool{}
	for _, m := range ms {
		byComp[m.Compressor] = true
	}
	for c := range byComp {
		switch c {
		case "ZFP", "SZ2", "PFPL-Serial", "PFPL-OMP", "PFPL-CUDA":
		default:
			t.Errorf("%s should not support REL", c)
		}
	}
	if !byComp["SZ2"] || !byComp["ZFP"] || !byComp["PFPL-CUDA"] {
		t.Error("expected REL participants missing")
	}
}

func TestPaperShapeProperties(t *testing.T) {
	// The qualitative results the figures must reproduce.
	aggs := AggregateScatter(scatter(core.ABS))
	get := func(name string, bound float64) *Aggregate {
		for i := range aggs {
			if aggs[i].Compressor == name && aggs[i].Bound == bound {
				return &aggs[i]
			}
		}
		return nil
	}
	for _, bound := range Bounds {
		pfplGPU := get("PFPL-CUDA", bound)
		pfplOMP := get("PFPL-OMP", bound)
		sz3 := get("SZ3-Serial", bound)
		mgard := get("MGARD-X", bound)
		cusz := get("cuSZp", bound)
		if pfplGPU == nil || sz3 == nil || pfplOMP == nil || mgard == nil || cusz == nil {
			t.Fatalf("bound %g: missing aggregates", bound)
		}
		// SZ3-Serial delivers the highest compression ratio (§V-B).
		if sz3.Ratio <= pfplGPU.Ratio {
			t.Errorf("bound %g: SZ3 ratio %.2f not above PFPL %.2f", bound, sz3.Ratio, pfplGPU.Ratio)
		}
		// PFPL-CUDA is (modelled) faster than the other GPU codes and
		// compresses more than them (§V-B takeaway 1).
		if pfplGPU.CompGBs <= cusz.CompGBs {
			t.Errorf("bound %g: PFPL-CUDA %.1f GB/s not above cuSZp %.1f", bound, pfplGPU.CompGBs, cusz.CompGBs)
		}
		if pfplGPU.Ratio <= cusz.Ratio {
			t.Errorf("bound %g: PFPL ratio %.2f not above cuSZp %.2f", bound, pfplGPU.Ratio, cusz.Ratio)
		}
		if pfplGPU.Ratio <= mgard.Ratio {
			t.Errorf("bound %g: PFPL ratio %.2f not above MGARD-X %.2f", bound, pfplGPU.Ratio, mgard.Ratio)
		}
		// MGARD-X is far slower than PFPL on the GPU (37x compress).
		if mgard.CompGBs*5 > pfplGPU.CompGBs {
			t.Errorf("bound %g: MGARD-X too fast (%.1f vs %.1f)", bound, mgard.CompGBs, pfplGPU.CompGBs)
		}
	}
	// Ratios decrease with tighter bounds for PFPL.
	var prev float64 = 1e30
	for _, bound := range Bounds {
		a := get("PFPL-CUDA", bound)
		if a.Ratio > prev {
			t.Errorf("PFPL ratio not monotone: %.2f then %.2f at %g", prev, a.Ratio, bound)
		}
		prev = a.Ratio
	}
}

func TestTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Lines) == 0 || len(t1.CSV) < 6 {
		t.Error("Table1 empty")
	}
	t2 := Table2(sdrbench.ScaleSmall)
	if len(t2.CSV) != 11 { // header + 10 suites
		t.Errorf("Table2 rows %d, want 11", len(t2.CSV))
	}
	if !strings.Contains(t2.Text(), "CESM-ATM") {
		t.Error("Table2 missing CESM-ATM")
	}
}

func TestFig16HasPSNR(t *testing.T) {
	reps := fig16(scatter)
	if len(reps) != 3 {
		t.Fatalf("got %d PSNR reports, want 3", len(reps))
	}
	if len(reps[0].CSV) < 2 {
		t.Error("Fig16a has no rows")
	}
}

func TestGPUGenerationsRanking(t *testing.T) {
	r := GPUGenerations(testCfg())
	if len(r.CSV) != 6 {
		t.Fatalf("got %d rows, want 6", len(r.CSV))
	}
	// First data row is the RTX 4090 and must have the highest compress
	// throughput.
	if r.CSV[1][0] != "RTX 4090" {
		t.Errorf("first GPU is %s", r.CSV[1][0])
	}
}

func TestAblationStagesMatter(t *testing.T) {
	r := Ablation(testCfg())
	vals := map[string]float64{}
	for _, row := range r.CSV[1:] {
		ratio, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad ratio %q", row[1])
		}
		vals[row[0]] = ratio
	}
	full := vals["full"]
	if full <= 1 {
		t.Fatalf("full pipeline ratio %.2f", full)
	}
	// §III.D: removing any lossless stage decreases the ratio
	// substantially.
	for _, v := range []string{"no-delta", "no-shuffle", "no-zeroelim"} {
		if vals[v] >= full*0.9 {
			t.Errorf("%s ratio %.2f not substantially below full %.2f", v, vals[v], full)
		}
	}
	if vals["no-negabinary"] >= full {
		t.Errorf("no-negabinary ratio %.2f not below full %.2f", vals["no-negabinary"], full)
	}
	// §III.B: the guarantee costs a few percent of ratio at most.
	if vals["no-guarantee"] < full*0.99 {
		t.Errorf("no-guarantee ratio %.2f below full %.2f: verification should only help", vals["no-guarantee"], full)
	}
}
