package conformance

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pfpl"
	"pfpl/internal/core"
)

// Batch conformance: the batch container must be bit-identical across every
// executor (the per-field payloads are the single-field streams, so batch
// identity reduces to per-field identity plus identical index assembly), every
// decoded field must satisfy its bound under the independent float64 checker,
// and a one-field batch must behave exactly like the single-field API.

// BatchCase is one scenario of the batch sweep: a set of fields in both
// precisions, structurally identical across the two.
type BatchCase struct {
	Name  string
	F32   [][]float32
	F64   [][]float64
	Heavy bool
}

// batchFieldLengths cycles zero-length, single-value, chunk-boundary, and
// mid-chunk field sizes so every multi-field case mixes empty fields with
// fields of different chunk counts.
var batchFieldLengths = []int{
	core.ChunkWords32 / 4,
	0,
	1,
	core.ChunkWords64,
	core.ChunkWords32 - 1,
	300,
	core.ChunkWords32 + 1,
	17,
}

// batchFieldGens cycles value shapes so neighboring fields stress different
// encoder paths inside one container, including NaN/Inf and denormals.
var batchFieldGens = []func(i int, r *rng) float64{
	genSmooth,
	genSpecials,
	genDenormals,
	genConstRuns,
	genLogNormal,
}

// genBatchFields materializes count fields deterministically; field j draws
// its length and shape from the cycles above and its values from a seed
// derived from (seed, j), so every call yields identical data.
func genBatchFields(count int, seed uint64) ([][]float32, [][]float64) {
	f32 := make([][]float32, count)
	f64 := make([][]float64, count)
	for j := 0; j < count; j++ {
		n := batchFieldLengths[j%len(batchFieldLengths)]
		gen := batchFieldGens[j%len(batchFieldGens)]
		e := genEntry("", n, seed+uint64(j)*0x9E37, gen)
		f32[j] = e.F32
		f64[j] = e.F64
	}
	return f32, f64
}

// BatchCorpus returns the deterministic batch scenarios: the field counts the
// index-table edge cases care about (1, 2, one under/at/over a 64-field
// window), all-empty batches, and a special-values mix.
func BatchCorpus() []BatchCase {
	counts := []struct {
		n     int
		heavy bool
	}{
		{1, false}, {2, false}, {63, true}, {64, false}, {65, true},
	}
	var out []BatchCase
	for _, c := range counts {
		f32, f64 := genBatchFields(c.n, 0xBA7C4+uint64(c.n))
		out = append(out, BatchCase{Name: "fields-" + itoa(c.n), F32: f32, F64: f64, Heavy: c.heavy})
	}

	// Every field zero-length: the index must carry three empty entries.
	out = append(out, BatchCase{
		Name: "all-empty",
		F32:  [][]float32{{}, {}, {}},
		F64:  [][]float64{{}, {}, {}},
	})

	// Special values as whole fields: an all-NaN field and an Inf-wall field
	// sandwiching a denormal field inside one container.
	sp := []struct {
		n    int
		seed uint64
		gen  func(int, *rng) float64
	}{
		{257, 0, genAllNaN},
		{core.ChunkWords64 + 9, 0xDE40, genDenormals},
		{2*core.ChunkWords64 + 9, 0x1FF, genInfWalls},
		{core.ChunkWords32 + 5, 0x5BEC1A15, genSpecials},
	}
	sc := BatchCase{Name: "special-fields"}
	for _, s := range sp {
		e := genEntry("", s.n, s.seed, s.gen)
		sc.F32 = append(sc.F32, e.F32)
		sc.F64 = append(sc.F64, e.F64)
	}
	out = append(out, sc)
	return out
}

// TestBatchExecutorIdentity sweeps every batch case × config × executor in
// both precisions: each executor's batch container must be byte-identical to
// the serial reference, and each executor must decode the reference container
// to bitwise-identical field values.
func TestBatchExecutorIdentity(t *testing.T) {
	forceParallel(t)
	execs := Executors()
	for _, bc := range BatchCorpus() {
		if testing.Short() && bc.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			ref32, err := pfpl.CompressBatch32(bc.F32, pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound})
			if err != nil {
				t.Fatalf("%s/%s/f32 serial: %v", bc.Name, cfg.Name(), err)
			}
			ref64, err := pfpl.CompressBatch64(bc.F64, pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound})
			if err != nil {
				t.Fatalf("%s/%s/f64 serial: %v", bc.Name, cfg.Name(), err)
			}
			want32, err := pfpl.DecompressBatch32(ref32, pfpl.Options{})
			if err != nil {
				t.Fatalf("%s/%s/f32 serial decode: %v", bc.Name, cfg.Name(), err)
			}
			want64, err := pfpl.DecompressBatch64(ref64, pfpl.Options{})
			if err != nil {
				t.Fatalf("%s/%s/f64 serial decode: %v", bc.Name, cfg.Name(), err)
			}
			for _, ex := range execs {
				if ex.Reference || (testing.Short() && !ex.Short) {
					continue
				}
				name := bc.Name + "/" + cfg.Name() + "/" + ex.Name
				opts := pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound, Device: ex.Dev}
				got32, err := pfpl.CompressBatch32(bc.F32, opts)
				if err != nil {
					t.Fatalf("%s/f32: %v", name, err)
				}
				if !bytes.Equal(got32, ref32) {
					t.Errorf("%s/f32: batch container differs from serial reference", name)
				}
				got64, err := pfpl.CompressBatch64(bc.F64, opts)
				if err != nil {
					t.Fatalf("%s/f64: %v", name, err)
				}
				if !bytes.Equal(got64, ref64) {
					t.Errorf("%s/f64: batch container differs from serial reference", name)
				}

				dec32, err := pfpl.DecompressBatch32(ref32, pfpl.Options{Device: ex.Dev})
				if err != nil {
					t.Fatalf("%s/f32 decode: %v", name, err)
				}
				compareBatch32(t, name+"/f32", want32, dec32)
				dec64, err := pfpl.DecompressBatch64(ref64, pfpl.Options{Device: ex.Dev})
				if err != nil {
					t.Fatalf("%s/f64 decode: %v", name, err)
				}
				compareBatch64(t, name+"/f64", want64, dec64)
			}
		}
	}
}

func compareBatch32(t *testing.T, name string, want, got [][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: decoded %d fields, want %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Errorf("%s: field %d decoded %d values, want %d", name, i, len(got[i]), len(want[i]))
			continue
		}
		for j := range want[i] {
			if math.Float32bits(want[i][j]) != math.Float32bits(got[i][j]) {
				t.Errorf("%s: field %d value %d differs bitwise from serial decode", name, i, j)
				break
			}
		}
	}
}

func compareBatch64(t *testing.T, name string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: decoded %d fields, want %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Errorf("%s: field %d decoded %d values, want %d", name, i, len(got[i]), len(want[i]))
			continue
		}
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				t.Errorf("%s: field %d value %d differs bitwise from serial decode", name, i, j)
				break
			}
		}
	}
}

// TestBatchBoundConformance decodes every batch case and audits each field
// against its bound with the independent float64 checker (VerifyBound), the
// same auditor the single-field sweep uses.
func TestBatchBoundConformance(t *testing.T) {
	for _, bc := range BatchCorpus() {
		if testing.Short() && bc.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			opts := pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound}
			comp32, err := pfpl.CompressBatch32(bc.F32, opts)
			if err != nil {
				t.Fatalf("%s/%s/f32: %v", bc.Name, cfg.Name(), err)
			}
			dec32, err := pfpl.DecompressBatch32(comp32, pfpl.Options{})
			if err != nil {
				t.Fatalf("%s/%s/f32: %v", bc.Name, cfg.Name(), err)
			}
			for i, f := range bc.F32 {
				if v := pfpl.VerifyBound(f, dec32[i], cfg.Mode, cfg.Bound); v != 0 {
					t.Errorf("%s/%s/f32: field %d has %d bound violations", bc.Name, cfg.Name(), i, v)
				}
			}
			comp64, err := pfpl.CompressBatch64(bc.F64, opts)
			if err != nil {
				t.Fatalf("%s/%s/f64: %v", bc.Name, cfg.Name(), err)
			}
			dec64, err := pfpl.DecompressBatch64(comp64, pfpl.Options{})
			if err != nil {
				t.Fatalf("%s/%s/f64: %v", bc.Name, cfg.Name(), err)
			}
			for i, f := range bc.F64 {
				if v := pfpl.VerifyBound64(f, dec64[i], cfg.Mode, cfg.Bound); v != 0 {
					t.Errorf("%s/%s/f64: field %d has %d bound violations", bc.Name, cfg.Name(), i, v)
				}
			}
		}
	}
}

// TestBatchFieldStandalone pins the random-access contract: every field
// payload inside a batch container is byte-identical to the single-field
// compressor's output for that field, so OpenBatch.Field needs no batch-aware
// decoder. A one-field batch is therefore the single-field stream plus a
// 52-byte wrapper — the CompressBatch([f]) ≡ Compress(f) equivalence.
func TestBatchFieldStandalone(t *testing.T) {
	for _, bc := range BatchCorpus() {
		if testing.Short() && bc.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			opts := pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound}
			comp, err := pfpl.CompressBatch32(bc.F32, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", bc.Name, cfg.Name(), err)
			}
			b, err := pfpl.OpenBatch(comp)
			if err != nil {
				t.Fatalf("%s/%s: %v", bc.Name, cfg.Name(), err)
			}
			if b.Count() != len(bc.F32) {
				t.Fatalf("%s/%s: batch holds %d fields, want %d", bc.Name, cfg.Name(), b.Count(), len(bc.F32))
			}
			for i, f := range bc.F32 {
				fc, err := b.Field(i)
				if err != nil {
					t.Fatalf("%s/%s field %d: %v", bc.Name, cfg.Name(), i, err)
				}
				single, err := pfpl.Compress32(f, opts)
				if err != nil {
					t.Fatalf("%s/%s field %d: %v", bc.Name, cfg.Name(), i, err)
				}
				if !bytes.Equal(fc, single) {
					t.Errorf("%s/%s: field %d payload differs from the single-field stream", bc.Name, cfg.Name(), i)
				}
			}
		}
	}
}

// goldenBatchPath pins the batch container format the same way golden.txt
// pins the single-field stream format.
const goldenBatchPath = "../../testdata/conformance/golden_batch.txt"

// TestGoldenBatchVectors pins the batch container format: for every batch
// case × config × precision it compares the SHA-256 of the input fields and
// of the serial batch container against checked-in vectors. Regenerate after
// a deliberate format change with
//
//	go test ./internal/conformance -run TestGoldenBatchVectors -update
func TestGoldenBatchVectors(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full corpus; rerun without -short")
	}
	type vec struct{ input, stream string }
	got := map[string]vec{}
	var keys []string
	for _, bc := range BatchCorpus() {
		if testing.Short() && bc.Heavy {
			continue
		}
		for _, cfg := range Configs() {
			opts := pfpl.Options{Mode: cfg.Mode, Bound: cfg.Bound}
			comp32, err := pfpl.CompressBatch32(bc.F32, opts)
			if err != nil {
				t.Fatalf("%s/%s/f32: %v", bc.Name, cfg.Name(), err)
			}
			k32 := bc.Name + "/" + cfg.Name() + "/f32"
			got[k32] = vec{input: hashF32Fields(bc.F32), stream: hashBytes(comp32)}
			keys = append(keys, k32)

			comp64, err := pfpl.CompressBatch64(bc.F64, opts)
			if err != nil {
				t.Fatalf("%s/%s/f64: %v", bc.Name, cfg.Name(), err)
			}
			k64 := bc.Name + "/" + cfg.Name() + "/f64"
			got[k64] = vec{input: hashF64Fields(bc.F64), stream: hashBytes(comp64)}
			keys = append(keys, k64)
		}
	}

	if *update {
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# PFPL golden batch-container vectors.\n")
		b.WriteString("# key <sha256(field lengths + field bytes)> <sha256(serial batch container)>\n")
		b.WriteString("# Regenerate: go test ./internal/conformance -run TestGoldenBatchVectors -update\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s %s\n", k, got[k].input, got[k].stream)
		}
		if err := os.MkdirAll(filepath.Dir(goldenBatchPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBatchPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden batch vectors to %s", len(keys), goldenBatchPath)
		return
	}

	f, err := os.Open(goldenBatchPath)
	if err != nil {
		t.Fatalf("golden batch vectors missing (%v); regenerate with -update", err)
	}
	defer f.Close()
	want := map[string]vec{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 3 {
			t.Fatalf("malformed golden line: %q", line)
		}
		want[parts[0]] = vec{input: parts[1], stream: parts[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: no golden vector; new batch case? rerun with -update", k)
			continue
		}
		g := got[k]
		switch {
		case g.input != w.input:
			t.Errorf("%s: batch corpus data changed (input digest %s, golden %s); "+
				"the corpus must stay deterministic — if the change is deliberate, rerun with -update",
				k, g.input[:12], w.input[:12])
		case g.stream != w.stream:
			t.Errorf("%s: BATCH CONTAINER FORMAT CHANGED (digest %s, golden %s) on unchanged input; "+
				"old containers can no longer be decoded — bump the container version or fix the regression",
				k, g.stream[:12], w.stream[:12])
		}
	}
	if !testing.Short() {
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: stale golden vector for a batch case that no longer exists; rerun with -update", k)
			}
		}
	}
}

// hashF32Fields digests a field set with length framing, so reshuffling the
// same values across field boundaries changes the digest.
func hashF32Fields(fields [][]float32) string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range fields {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(f)))
		h.Write(buf[:])
		var vb [4]byte
		for _, x := range f {
			binary.LittleEndian.PutUint32(vb[:], math.Float32bits(x))
			h.Write(vb[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashF64Fields(fields [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, f := range fields {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(f)))
		h.Write(buf[:])
		var vb [8]byte
		for _, x := range f {
			binary.LittleEndian.PutUint64(vb[:], math.Float64bits(x))
			h.Write(vb[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
