package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	if got := r.Now(); got != 0 {
		t.Fatalf("nil Now = %d, want 0", got)
	}
	if got := r.Track("x"); got != 0 {
		t.Fatalf("nil Track = %d, want 0", got)
	}
	r.Record(Span{Stage: StageEncode})
	r.UnitDone(OutcomeRaw, 1, 2)
	if got := r.StageSpan(StageQuantize, 0, 0, 5); got != 0 {
		t.Fatalf("nil StageSpan = %d, want 0", got)
	}
	if got := r.StageSpanOutcome(StageEncode, 0, 0, 5, OutcomeRaw, 1, 2); got != 0 {
		t.Fatalf("nil StageSpanOutcome = %d, want 0", got)
	}
	if sp := r.Spans(); sp != nil {
		t.Fatalf("nil Spans = %v, want nil", sp)
	}
	if s := r.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", s)
	}
	if names := r.TrackNames(); names != nil {
		t.Fatalf("nil TrackNames = %v, want nil", names)
	}
}

func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageQuantize:  "quantize",
		StageDelta:     "delta",
		StageShuffle:   "shuffle",
		StageEncode:    "encode",
		StageCarryWait: "carry-wait",
		StageEmit:      "emit",
		StageDecode:    "decode",

		StageAdmissionWait: "admission-wait",
		StageSlotWait:      "slot-wait",
		StageRead:          "read",
		StageRequest:       "request",
	}
	if len(want) != NumStages {
		t.Fatalf("test covers %d stages, NumStages = %d", len(want), NumStages)
	}
	for st, name := range want {
		if st.String() != name {
			t.Fatalf("stage %d String = %q, want %q", st, st.String(), name)
		}
	}
	if got := Stage(200).String(); got != "stage(200)" {
		t.Fatalf("out-of-range stage String = %q", got)
	}
}

func TestRecordAggregates(t *testing.T) {
	r := New(16)
	r.Record(Span{Start: 10, Dur: 5, Stage: StageQuantize})
	r.Record(Span{Start: 15, Dur: 7, Stage: StageEncode, Outcome: OutcomeCompressed, BytesIn: 100, BytesOut: 40})
	r.Record(Span{Start: 22, Dur: 3, Stage: StageEncode, Outcome: OutcomeRaw, BytesIn: 100, BytesOut: 104})
	s := r.Stats()
	if s.Spans != 3 || s.Dropped != 0 {
		t.Fatalf("spans/dropped = %d/%d, want 3/0", s.Spans, s.Dropped)
	}
	if s.Units != 2 || s.RawUnits != 1 {
		t.Fatalf("units/raw = %d/%d, want 2/1", s.Units, s.RawUnits)
	}
	if s.BytesIn != 200 || s.BytesOut != 144 {
		t.Fatalf("bytes = %d/%d, want 200/144", s.BytesIn, s.BytesOut)
	}
	if s.StageNS[StageQuantize] != 5 || s.StageNS[StageEncode] != 10 {
		t.Fatalf("stage ns = %v", s.StageNS)
	}
	if s.StageSpans[StageEncode] != 2 {
		t.Fatalf("encode spans = %d, want 2", s.StageSpans[StageEncode])
	}
	if s.Ratio() < 1.38 || s.Ratio() > 1.39 {
		t.Fatalf("ratio = %g", s.Ratio())
	}
	if str := s.String(); len(str) == 0 || !bytes.Contains([]byte(str), []byte("quantize")) {
		t.Fatalf("stats String missing stage names: %q", str)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Start: int64(i), Stage: StageEmit})
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := int64(6 + i); sp.Start != want {
			t.Fatalf("span %d Start = %d, want %d (oldest-first order)", i, sp.Start, want)
		}
	}
	s := r.Stats()
	if s.Spans != 10 || s.Dropped != 6 {
		t.Fatalf("spans/dropped = %d/%d, want 10/6", s.Spans, s.Dropped)
	}
	if s.StageSpans[StageEmit] != 10 {
		t.Fatal("aggregates must survive ring wraparound")
	}
}

func TestStatsOnlyRecorder(t *testing.T) {
	r := New(0)
	r.Record(Span{Dur: 9, Stage: StageDecode, Outcome: OutcomeCompressed, BytesIn: 8, BytesOut: 4})
	if spans := r.Spans(); spans != nil {
		t.Fatalf("stats-only recorder retained spans: %v", spans)
	}
	s := r.Stats()
	if s.Spans != 1 || s.Dropped != 1 || s.Units != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTrackDedup(t *testing.T) {
	r := New(8)
	a := r.Track("cpu-w0")
	b := r.Track("cpu-w1")
	if a2 := r.Track("cpu-w0"); a2 != a {
		t.Fatalf("duplicate Track registration: %d vs %d", a2, a)
	}
	if a == b {
		t.Fatal("distinct names must get distinct tracks")
	}
	names := r.TrackNames()
	if len(names) != 3 || names[0] != "main" || names[a] != "cpu-w0" || names[b] != "cpu-w1" {
		t.Fatalf("track names = %v", names)
	}
}

func TestStageSpanChains(t *testing.T) {
	r := New(8)
	start := r.Now()
	mid := r.StageSpan(StageQuantize, 0, 3, start)
	if mid < start {
		t.Fatalf("monotonic clock went backwards: %d < %d", mid, start)
	}
	end := r.StageSpanOutcome(StageEncode, 0, 3, mid, OutcomeCompressed, 64, 16)
	if end < mid {
		t.Fatalf("monotonic clock went backwards: %d < %d", end, mid)
	}
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Stage != StageQuantize || spans[0].Unit != 3 || spans[0].Dur < 0 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Start != mid || spans[1].Outcome != OutcomeCompressed {
		t.Fatalf("span 1 = %+v", spans[1])
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := r.Track("w")
			for i := 0; i < per; i++ {
				t0 := r.Now()
				r.StageSpanOutcome(StageEncode, track, int32(i), t0, OutcomeCompressed, 10, 5)
			}
		}(w)
	}
	wg.Wait()
	s := r.Stats()
	if s.Spans != workers*per || s.Units != workers*per {
		t.Fatalf("spans/units = %d/%d, want %d", s.Spans, s.Units, workers*per)
	}
	if s.BytesIn != workers*per*10 {
		t.Fatalf("bytes in = %d", s.BytesIn)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New(32)
	tr := r.Track("sm-0")
	t0 := r.Now()
	t1 := r.StageSpan(StageQuantize, tr, 0, t0)
	r.StageSpanOutcome(StageEncode, tr, 0, t1, OutcomeRaw, 16384, 16384)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, "pfpl-test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, slices int
	var sawProcess, sawTrack, sawRawOutcome bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name == "process_name" && ev.Args["name"] == "pfpl-test" {
				sawProcess = true
			}
			if ev.Name == "thread_name" && ev.Args["name"] == "sm-0" {
				sawTrack = true
			}
		case "X":
			slices++
			if ev.Dur < 0 {
				t.Fatalf("negative duration slice: %+v", ev)
			}
			if ev.Name == "encode" && ev.Args["outcome"] == "raw" {
				sawRawOutcome = true
				if ev.Args["bytes_in"].(float64) != 16384 {
					t.Fatalf("bytes_in = %v", ev.Args["bytes_in"])
				}
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if slices != 2 {
		t.Fatalf("slice count = %d, want 2", slices)
	}
	if !sawProcess || !sawTrack || !sawRawOutcome {
		t.Fatalf("missing metadata/outcome: process=%v track=%v raw=%v", sawProcess, sawTrack, sawRawOutcome)
	}
}

func BenchmarkNilRecorderProbe(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		t0 := r.Now()
		t0 = r.StageSpan(StageQuantize, 0, 0, t0)
		sink += r.StageSpanOutcome(StageEncode, 0, 0, t0, OutcomeCompressed, 1, 1)
	}
	_ = sink
}
