package pfpl

// Public tracing surface. A Tracer records per-chunk stage spans (quantize,
// delta, shuffle, encode, carry-wait, emit, decode) from whichever executor
// runs the call, aggregates them into CompressStats, and exports the raw
// spans as Chrome trace-event JSON viewable in Perfetto or chrome://tracing.
// Tracing is strictly observational: the compressed bytes with a Tracer
// attached are identical to the bytes without one (the conformance suite's
// golden vectors pin the format; the obs layer never touches payload data).

import (
	"io"

	"pfpl/internal/core"
	"pfpl/internal/obs"
)

// Tracer collects stage spans and aggregate statistics from a traced
// compression or decompression call. A nil *Tracer is a valid no-op
// everywhere one is accepted, and the nil fast path costs nothing on the
// hot loops (pinned by the zero-allocation tests in internal/core).
type Tracer = obs.Recorder

// CompressStats is the aggregate view of a Tracer: span and unit counts,
// bytes in and out, and per-stage time totals. It survives span-ring
// wraparound — aggregates are updated on every Record, not derived from the
// retained spans.
type CompressStats = obs.Stats

// NewTracer creates a Tracer retaining up to spanCapacity spans (oldest
// dropped first). spanCapacity <= 0 keeps aggregates only, which is the
// cheap mode for always-on stats without timeline export.
func NewTracer(spanCapacity int) *Tracer { return obs.New(spanCapacity) }

// WriteTrace exports everything t recorded as Chrome trace-event JSON: one
// named track per executor lane (worker, simulated SM, stream worker), one
// complete event per stage span. The output loads directly in Perfetto.
func WriteTrace(w io.Writer, t *Tracer, process string) error {
	return t.WriteChromeTrace(w, process)
}

// ChunkOutcomes reports, without decoding, how a compressed container's
// chunks fared: the total chunk count, how many fell back to raw (lossless)
// storage because quantization could not hold the bound, and the summed
// payload bytes behind the chunk table. Checksummed streams are verified
// first. It complements Stat, which stops at the header.
func ChunkOutcomes(buf []byte) (chunks, rawChunks int, payloadBytes int64, err error) {
	buf, err = core.VerifyAndStripChecksum(buf)
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := core.ParseHeader(buf)
	if err != nil {
		return 0, 0, 0, err
	}
	_, lengths, raws, _, err := core.ChunkTable(buf, &h)
	if err != nil {
		return 0, 0, 0, err
	}
	for i, n := range lengths {
		payloadBytes += int64(n)
		if raws[i] {
			rawChunks++
		}
	}
	return h.NumChunks, rawChunks, payloadBytes, nil
}
