package server

import (
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"pfpl"
	"pfpl/internal/core"
)

// POST /v1/batch: the many-small-fields path. DAQ-style clients fire many
// concurrent small compression requests, one raw field each. Each request is
// compressed on its own, under the same admission and pipeline-slot gates as
// /v1/compress, and answered with the standalone single-field container —
// byte-identical to pfpl.Compress32/64 with the request's options — plus a
// content digest header so caches can dedupe identical fields across
// uploads. A small field is one or a few chunks that compress in tens of
// microseconds, so holding requests back to merge them would cost more
// latency than one shared dispatch saves.

// maxBatchFieldBytes caps one /v1/batch request body: the endpoint exists
// for small fields; large bodies belong on /v1/compress where they stream
// instead of buffering.
const maxBatchFieldBytes = 16 << 20

// errBatchTooLarge marks a /v1/batch body over the per-field cap.
var errBatchTooLarge = errors.New("server: batch field exceeds the per-field byte cap")

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	p, err := parseParams(r, true)
	if err != nil {
		s.count("batch", p.modeName, "client_error")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.ContentLength > maxBatchFieldBytes {
		s.count("batch", p.modeName, "too_large")
		http.Error(w, errBatchTooLarge.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchFieldBytes+1))
	if err != nil {
		s.count("batch", p.modeName, "client_error")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > maxBatchFieldBytes {
		s.count("batch", p.modeName, "too_large")
		http.Error(w, errBatchTooLarge.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if len(body)%p.elemSize() != 0 {
		s.count("batch", p.modeName, "client_error")
		http.Error(w, errBadBody.Error(), http.StatusBadRequest)
		return
	}

	ev := eventFrom(r.Context())
	ev.setParams(p.modeName, precisionName(p.double))
	// The telemetry wrapper echoes the caller's request id; without it a
	// well-formed caller-supplied id is still echoed here, so batch clients
	// can always correlate response to request.
	if rid := r.Header.Get("X-Request-Id"); ev == nil && rid != "" && len(rid) <= maxRequestIDLen && isPrintableASCII(rid) {
		w.Header().Set("X-Request-Id", rid)
	}

	// The raw field plus worst-case output, handed back when the response
	// is done.
	release, ok := s.admit(w, r, "batch", p.modeName, 2*int64(len(body)))
	if !ok {
		return
	}
	defer release()

	t0 := time.Now()
	opts := pfpl.Options{Mode: p.mode, Bound: p.bound, Device: s.dev, Checksum: p.checksum, Trace: ev.tracer()}
	var vals32 []float32
	var vals64 []float64
	var out []byte
	if p.double {
		vals64 = make([]float64, len(body)/8)
		getLE(vals64, body)
		out, err = pfpl.Compress64(vals64, opts)
	} else {
		vals32 = make([]float32, len(body)/4)
		getLE(vals32, body)
		out, err = pfpl.Compress32(vals32, opts)
	}
	if err != nil {
		s.finishError(w, "batch", p.modeName, false, err)
		return
	}
	if rec := ev.tracer(); rec != nil {
		// Sampled requests only: the chunk-table parse and the round trip
		// are the costs head sampling exists to bound.
		if chunks, raw, _, cerr := pfpl.ChunkOutcomes(out); cerr == nil {
			rec.ChunksDone(int64(chunks), int64(raw))
		}
		s.auditBound(p, vals32, vals64, out)
	}
	ev.setBytes(int64(len(body)), int64(len(out)))
	digest := core.FrameDigest(out)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Header().Set("X-Pfpl-Digest", hex.EncodeToString(digest[:]))
	// Always 1, as each request is its own field; kept because existing
	// clients and the benchmark's response check read it.
	w.Header().Set("X-Pfpl-Coalesced", "1")
	if _, err := w.Write(out); err != nil {
		s.count("batch", p.modeName, "error")
		return
	}
	s.count("batch", p.modeName, "ok")
	s.reg.Counter("bytes.in").Add(int64(len(body)))
	s.reg.Counter("bytes.out").Add(int64(len(out)))
	s.reg.Histogram("latency_ns.batch").Observe(float64(time.Since(t0).Nanoseconds()))
	if len(out) > 0 {
		s.observeRatio("ratio.batch", float64(len(body))/float64(len(out)), ev)
	}
}

// auditBound round-trips one sampled field (vals32 or vals64, by precision)
// and verifies the error bound held, feeding the audit counters.
func (s *Server) auditBound(p reqParams, vals32 []float32, vals64 []float64, comp []byte) {
	violations := 0
	if p.double {
		recon, err := pfpl.Decompress64(comp, nil, pfpl.Options{Device: s.dev})
		if err != nil {
			violations = len(vals64)
		} else {
			violations = pfpl.VerifyBound64(vals64, recon, p.mode, p.bound)
		}
	} else {
		recon, err := pfpl.Decompress32(comp, nil, pfpl.Options{Device: s.dev})
		if err != nil {
			violations = len(vals32)
		} else {
			violations = pfpl.VerifyBound(vals32, recon, p.mode, p.bound)
		}
	}
	if violations > 0 {
		s.reg.Counter("audit.bound.fail").Add(1)
		return
	}
	s.reg.Counter("audit.bound.pass").Add(1)
}
