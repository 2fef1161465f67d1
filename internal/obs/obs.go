// Package obs is the low-overhead tracing layer shared by every PFPL
// executor. A Recorder collects per-chunk and per-frame stage spans —
// quantize, delta, shuffle, encode, carry-wait, emit, decode — with
// monotonic-clock timestamps into a bounded ring buffer, and maintains
// aggregate statistics (per-stage time, unit outcomes, bytes in/out) that
// survive ring wraparound.
//
// The nil *Recorder is the disabled state and every method is nil-safe, so
// instrumented hot loops carry exactly one pointer check per probe and zero
// allocations when tracing is off. The executors thread a Recorder through
// their per-worker scratch state; the CLI and tests export the collected
// spans as Chrome trace-event JSON viewable in Perfetto (chrometrace.go).
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Stage identifies one pipeline stage of a span. The compression stages
// mirror the paper's kernel phases (§III.D–E): quantization, difference
// coding with negabinary residuals, warp-granularity bit shuffle, zero-byte
// elimination with scan-based compaction, the carry/look-back wait for the
// predecessor's output offset, and the ordered emission of the payload.
type Stage uint8

const (
	// StageQuantize is value quantization (paper §III.A–B).
	StageQuantize Stage = iota
	// StageDelta is difference coding + negabinary conversion (§III.D).
	StageDelta
	// StageShuffle is the bit shuffle / transpose (§III.D).
	StageShuffle
	// StageEncode is zero-byte elimination, compaction, and the raw
	// fallback decision (§III.D–E).
	StageEncode
	// StageCarryWait is time spent waiting for the predecessor chunk's
	// output offset (the simulated GPU's decoupled look-back) or, for
	// stream frames, the in-order emission turn. The CPU executor relays
	// its carry instead of waiting and records none.
	StageCarryWait
	// StageEmit is copying or writing the payload into the output stream.
	StageEmit
	// StageDecode is a whole-unit decompression.
	StageDecode

	// The remaining stages are HTTP-level: the serve daemon records one span
	// per request phase on an "http" track, parenting the codec stage spans
	// above in the same exportable trace (see internal/server).

	// StageAdmissionWait is the time a request spent acquiring its byte
	// reservation from the admission gate.
	StageAdmissionWait
	// StageSlotWait is the time queued for a pipeline slot.
	StageSlotWait
	// StageRead is request-body consumption (interleaved with codec work on
	// the streaming endpoints; recorded as one span covering the read loop).
	StageRead
	// StageRequest is the whole-request umbrella span.
	StageRequest
	numStages
)

// NumStages is the number of defined stages.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	"quantize", "delta", "shuffle", "encode", "carry-wait", "emit", "decode",
	"admission-wait", "slot-wait", "read", "request",
}

// String returns the stage's span name.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Outcome labels what happened to a unit (chunk or frame).
type Outcome uint8

const (
	// OutcomeNone marks a span that does not conclude a unit.
	OutcomeNone Outcome = iota
	// OutcomeCompressed marks a unit stored in compressed form.
	OutcomeCompressed
	// OutcomeRaw marks an incompressible unit stored via the raw fallback.
	OutcomeRaw
)

// String returns the outcome label.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompressed:
		return "compressed"
	case OutcomeRaw:
		return "raw"
	}
	return "none"
}

// Span is one recorded interval. Start and Dur are nanoseconds on the
// recorder's monotonic clock (Start is measured from the recorder's
// creation). Track identifies the executor lane (worker, simulated SM, or
// pipeline worker); Unit is the chunk or frame index. Spans are plain
// values with no pointers, so the ring buffer never allocates.
type Span struct {
	Start    int64
	Dur      int64
	Track    int32
	Unit     int32
	Stage    Stage
	Outcome  Outcome
	BytesIn  int64
	BytesOut int64
}

// Stats aggregates a recorder's spans. Unlike the ring buffer, the
// aggregates are exact over the recorder's whole lifetime.
type Stats struct {
	// Spans is the total number of spans recorded; Dropped counts those no
	// longer present in the bounded ring.
	Spans   uint64
	Dropped uint64
	// Units counts concluded units (chunks or frames); RawUnits those that
	// fell back to raw storage (incompressible).
	Units    int64
	RawUnits int64
	// BytesIn and BytesOut sum the unit sizes before and after coding.
	BytesIn  int64
	BytesOut int64
	// Chunks and RawChunks aggregate chunk-level encode outcomes reported
	// via ChunksDone — finer-grained than Units when the recorder's units
	// are frames or fields (the streaming pipeline reports per-frame chunk
	// tallies here without recording a span per chunk).
	Chunks    int64
	RawChunks int64
	// StageNS and StageSpans hold per-stage total time and span counts.
	StageNS    [NumStages]int64
	StageSpans [NumStages]int64
}

// Ratio returns BytesIn/BytesOut, or 0 when nothing was emitted.
func (s Stats) Ratio() float64 {
	if s.BytesOut == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.BytesOut)
}

// String renders a human-readable stage breakdown.
func (s Stats) String() string {
	var b strings.Builder
	var total int64
	for _, ns := range s.StageNS {
		total += ns
	}
	fmt.Fprintf(&b, "units=%d raw=%d bytes_in=%d bytes_out=%d ratio=%.2f spans=%d dropped=%d\n",
		s.Units, s.RawUnits, s.BytesIn, s.BytesOut, s.Ratio(), s.Spans, s.Dropped)
	for st := 0; st < NumStages; st++ {
		if s.StageSpans[st] == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.StageNS[st]) / float64(total)
		}
		fmt.Fprintf(&b, "%-10s %8d spans %12v %5.1f%%\n",
			Stage(st).String(), s.StageSpans[st], time.Duration(s.StageNS[st]), share)
	}
	return b.String()
}

// Recorder collects spans. The zero value is not usable; create with New.
// A nil *Recorder is the disabled recorder: every method is a cheap no-op,
// which is the executors' default fast path.
//
// Record and the Stage helpers take a short mutex critical section; at
// chunk/frame granularity (a 16 kB chunk encodes in microseconds) the
// contention is negligible, and the mutex keeps the ring and aggregates
// race-free under concurrent workers.
type Recorder struct {
	epoch time.Time

	mu       sync.Mutex
	ring     []Span
	tracks   []string
	trackIDs map[string]int32
	stats    Stats
}

// New creates a recorder whose ring holds up to spanCapacity spans (the
// most recent are kept; older spans are dropped but still counted in the
// aggregates). spanCapacity <= 0 creates a stats-only recorder that keeps
// aggregates without retaining individual spans.
func New(spanCapacity int) *Recorder {
	r := &Recorder{
		epoch:    time.Now(),
		tracks:   []string{"main"},
		trackIDs: map[string]int32{"main": 0},
	}
	if spanCapacity > 0 {
		r.ring = make([]Span, spanCapacity)
	}
	return r
}

// Now returns the current time in nanoseconds on the recorder's monotonic
// clock, or 0 on a nil recorder.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Track returns the id of the named track, registering it on first use.
// Tracks are deduplicated by name, so repeated calls (one compress call per
// frame, say) share a lane instead of multiplying them.
func (r *Recorder) Track(name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.trackIDs[name]; ok {
		return id
	}
	//pfpl:ignore intwidth track count is one per worker lane, far below 2^31
	id := int32(len(r.tracks))
	r.tracks = append(r.tracks, name)
	r.trackIDs[name] = id
	return id
}

// TrackNames returns the registered track names indexed by track id.
func (r *Recorder) TrackNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.tracks))
	copy(out, r.tracks)
	return out
}

// Record stores one span.
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.record(sp)
	r.mu.Unlock()
}

// record updates the ring and aggregates; callers hold r.mu.
func (r *Recorder) record(sp Span) {
	if int(sp.Stage) < NumStages {
		r.stats.StageNS[sp.Stage] += sp.Dur
		r.stats.StageSpans[sp.Stage]++
	}
	if sp.Outcome != OutcomeNone {
		r.stats.Units++
		if sp.Outcome == OutcomeRaw {
			r.stats.RawUnits++
		}
		r.stats.BytesIn += sp.BytesIn
		r.stats.BytesOut += sp.BytesOut
	}
	if len(r.ring) > 0 {
		r.ring[r.stats.Spans%uint64(len(r.ring))] = sp
	}
	r.stats.Spans++
}

// StageSpan records a span for stage from start (a value from Now or a
// previous StageSpan) until now, and returns the end timestamp so
// consecutive stages chain without extra clock reads. On a nil recorder it
// returns 0 and records nothing.
func (r *Recorder) StageSpan(stage Stage, track, unit int32, start int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.Record(Span{Start: start, Dur: now - start, Track: track, Unit: unit, Stage: stage})
	return now
}

// StageSpanOutcome is StageSpan for a unit-concluding stage: the span
// carries the unit's outcome label and byte sizes, which also feed the
// aggregate unit statistics.
func (r *Recorder) StageSpanOutcome(stage Stage, track, unit int32, start int64, out Outcome, bytesIn, bytesOut int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.Record(Span{
		Start: start, Dur: now - start, Track: track, Unit: unit,
		Stage: stage, Outcome: out, BytesIn: bytesIn, BytesOut: bytesOut,
	})
	return now
}

// UnitDone updates the aggregate unit statistics without recording a span,
// for callers that account outcomes separately from timing.
func (r *Recorder) UnitDone(out Outcome, bytesIn, bytesOut int64) {
	if r == nil || out == OutcomeNone {
		return
	}
	r.mu.Lock()
	r.stats.Units++
	if out == OutcomeRaw {
		r.stats.RawUnits++
	}
	r.stats.BytesIn += bytesIn
	r.stats.BytesOut += bytesOut
	r.mu.Unlock()
}

// ChunksDone adds a chunk-outcome tally to the aggregates without recording
// spans: chunks chunk encodes concluded, raw of which fell back to raw
// storage. The streaming pipeline calls this once per frame after parsing
// the frame's chunk table, so chunk-mode statistics survive even when the
// recorder's span units are whole frames.
func (r *Recorder) ChunksDone(chunks, raw int64) {
	if r == nil || chunks == 0 {
		return
	}
	r.mu.Lock()
	r.stats.Chunks += chunks
	r.stats.RawChunks += raw
	r.mu.Unlock()
}

// Spans returns the retained spans in recording order (oldest first).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.stats.Spans
	if len(r.ring) == 0 || n == 0 {
		return nil
	}
	cap64 := uint64(len(r.ring))
	if n <= cap64 {
		out := make([]Span, n)
		copy(out, r.ring[:n])
		return out
	}
	// The ring wrapped: oldest retained span sits at the write cursor.
	out := make([]Span, cap64)
	cur := n % cap64
	copy(out, r.ring[cur:])
	copy(out[cap64-cur:], r.ring[:cur])
	return out
}

// Stats returns a consistent copy of the aggregates.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	if len(r.ring) == 0 {
		s.Dropped = s.Spans
	} else if s.Spans > uint64(len(r.ring)) {
		s.Dropped = s.Spans - uint64(len(r.ring))
	}
	return s
}
