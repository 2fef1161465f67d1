package gpusim

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"pfpl/internal/core"
	"pfpl/internal/obs"
)

func timelineInput(t *testing.T) ([]float32, []byte) {
	t.Helper()
	// Three full chunks of smooth data plus a partial chunk of incompressible
	// noise, so the stream mixes compressed and raw outcomes.
	n := 3*core.ChunkWords32 + 1000
	src := make([]float32, n)
	state := uint32(1)
	for i := range src {
		if i < 3*core.ChunkWords32 {
			src[i] = float32(math.Sin(float64(i) / 40))
		} else {
			// Random mantissa and sign with a huge random exponent: the value
			// overflows the quantization range and is stored losslessly, and
			// the bytes carry no exploitable structure — the chunk goes raw.
			state = state*1664525 + 1013904223
			src[i] = math.Float32frombits(state&0x807FFFFF | (200+state>>24%54)<<23)
		}
	}
	comp, err := core.Compress(Exec[float32]{RTX4090}, src, core.ABS, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return src, comp
}

func TestModelTimelineSpanCount(t *testing.T) {
	_, comp := timelineInput(t)
	h, err := core.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := ModelTimeline(RTX4090, comp)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Blocks != h.NumChunks {
		t.Fatalf("blocks = %d, want %d", tl.Blocks, h.NumChunks)
	}
	if want := h.NumChunks * len(CompressStages); len(tl.Spans) != want {
		t.Fatalf("span count = %d, want blocks×stages = %d", len(tl.Spans), want)
	}
	if tl.TotalNS <= 0 {
		t.Fatalf("makespan = %d, want > 0", tl.TotalNS)
	}
	for i, sp := range tl.Spans {
		if sp.Dur < 0 {
			t.Fatalf("span %d has negative duration: %+v", i, sp)
		}
		if int(sp.Track) >= len(tl.Tracks) {
			t.Fatalf("span %d references track %d beyond %d SMs", i, sp.Track, len(tl.Tracks))
		}
	}
	// The incompressible tail chunk must be labelled raw on its encode span.
	var sawRaw bool
	for _, sp := range tl.Spans {
		if sp.Stage == obs.StageEncode && sp.Outcome == obs.OutcomeRaw {
			sawRaw = true
		}
	}
	if !sawRaw {
		t.Fatal("no raw-outcome encode span for the incompressible chunk")
	}
}

// TestModelTimelineChromeSchema is the acceptance check: the exported
// timeline must be valid Chrome trace-event JSON whose complete-event count
// equals the modelled block×stage count.
func TestModelTimelineChromeSchema(t *testing.T) {
	_, comp := timelineInput(t)
	h, err := core.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := ModelTimeline(RTX4090, comp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	stageNames := map[string]bool{}
	for _, st := range CompressStages {
		stageNames[st.String()] = true
	}
	slices := 0
	threadNames := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Fatalf("unexpected phase %q (only complete and metadata events expected)", ev.Ph)
		}
		if ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event missing pid/tid: %+v", ev)
		}
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				threadNames[*ev.Tid] = ev.Args["name"].(string)
			}
			continue
		}
		slices++
		if ev.Ts == nil {
			t.Fatalf("slice missing ts: %+v", ev)
		}
		if !stageNames[ev.Name] {
			t.Fatalf("slice name %q is not a modelled compress stage", ev.Name)
		}
		if ev.Dur < 0 {
			t.Fatalf("negative slice duration: %+v", ev)
		}
	}
	if want := h.NumChunks * len(CompressStages); slices != want {
		t.Fatalf("slice count = %d, want blocks×stages = %d", slices, want)
	}
	if threadNames[0] != "SM 0" {
		t.Fatalf("SM 0 lane not named: %v", threadNames)
	}
}

func TestModelTimelineRejectsCorrupt(t *testing.T) {
	if _, err := ModelTimeline(RTX4090, []byte("not a pfpl stream")); err == nil {
		t.Fatal("corrupt input accepted")
	}
}

func TestCompressTracedIdenticalAndRecords(t *testing.T) {
	src, comp := timelineInput(t)
	rec := obs.New(1 << 16)
	traced, err := core.Compress(Exec[float32]{RTX4090}, src, core.ABS, 1e-3, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traced, comp) {
		t.Fatal("tracing changed the compressed bytes")
	}
	h, err := core.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Stats()
	if s.Units != int64(h.NumChunks) {
		t.Fatalf("recorded %d units, want %d chunks", s.Units, h.NumChunks)
	}
	if s.RawUnits == 0 {
		t.Fatal("raw chunk not counted")
	}
	// Each chunk contributes quantize/delta/shuffle/encode/carry-wait/emit.
	for _, st := range CompressStages {
		if got := s.StageSpans[st]; got != int64(h.NumChunks) {
			t.Fatalf("stage %v span count = %d, want %d", st, got, h.NumChunks)
		}
	}
	// Decode side: traced decompression must round-trip and record decode spans.
	rec2 := obs.New(1 << 16)
	vals, err := core.Decompress(Exec[float32]{RTX4090}, comp, nil, rec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(src) {
		t.Fatalf("decoded %d values, want %d", len(vals), len(src))
	}
	if got := rec2.Stats().StageSpans[obs.StageDecode]; got != int64(h.NumChunks) {
		t.Fatalf("decode spans = %d, want %d", got, h.NumChunks)
	}
}
