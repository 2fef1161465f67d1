package server

import (
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pfpl"
	"pfpl/internal/core"
	"pfpl/internal/obs"
)

// POST /v1/batch: the many-small-fields path. DAQ-style clients fire
// thousands of concurrent small compression requests; running each through
// its own pipeline pays a pool dispatch and a pipeline slot per field.
// Instead, concurrent /v1/batch requests with identical parameters coalesce
// behind a short linger window into one batch, compressed through a single
// pool dispatch holding a single pipeline slot. Each request still gets its
// own response: the standalone per-field container sliced from the batch,
// byte-identical to what an uncoalesced request would have produced, plus a
// content digest header so caches can dedupe identical fields across
// uploads. Admission is per request — each field reserves its own bytes on
// arrival and releases them when its response is done — so one canceled
// request frees exactly its own reservation and the rest of the batch is
// untouched.

// Batch coalescing defaults for the zero Config.
const (
	// DefaultBatchMaxFields flushes a pending batch at this many coalesced
	// requests.
	DefaultBatchMaxFields = 64
	// DefaultBatchMaxBytes flushes a pending batch when the summed raw
	// bodies reach this many bytes.
	DefaultBatchMaxBytes = 8 << 20
	// DefaultBatchLinger is how long the first request of a batch waits for
	// company before flushing.
	DefaultBatchLinger = 2 * time.Millisecond
	// maxBatchFieldBytes caps one /v1/batch request body: the endpoint
	// exists for small fields; large bodies belong on /v1/compress where
	// they stream instead of buffering.
	maxBatchFieldBytes = 16 << 20
)

// batchKey groups coalescible requests: only identical compression
// parameters may share a batch container.
type batchKey struct {
	mode     pfpl.Mode
	modeName string
	bound    float64
	double   bool
	checksum bool
}

// batchMember is one request waiting in a pending batch.
type batchMember struct {
	vals32 []float32
	vals64 []float64
	result chan batchResult // buffered; the flusher never blocks on delivery
	// Telemetry attribution, set by the request goroutine before add and
	// read by the flusher: the member's request id and whether its request
	// is trace-sampled (one sampled member makes the whole flush record a
	// codec trace, shared by every sampled member of the batch).
	id      string
	sampled bool
}

type batchResult struct {
	data      []byte
	coalesced int
	err       error
	// Flush telemetry, shared by all members of one flush. flushRec is
	// non-nil only when at least one member was sampled; it holds the
	// coalesced compression's codec spans plus one emit span per field, and
	// is read-only once delivered. fieldIndex is this member's field in the
	// batch container; memberIDs maps every field index to the request id
	// that contributed it.
	flushRec   *obs.Recorder
	flushStart time.Time
	fieldIndex int
	memberIDs  []string
}

// pendingBatch accumulates members until a flush trigger: member count,
// summed bytes, or the linger deadline.
type pendingBatch struct {
	members []*batchMember
	bytes   int64
	timer   *time.Timer
	flushed bool
}

// batcher owns the pending batches, one per parameter key.
type batcher struct {
	s  *Server
	mu sync.Mutex
	m  map[batchKey]*pendingBatch
}

func newBatcher(s *Server) *batcher {
	return &batcher{s: s, m: make(map[batchKey]*pendingBatch)}
}

// pending reports the fields currently waiting in unflushed batches, for
// the /v1/status snapshot.
func (bc *batcher) pending() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	n := 0
	for _, pb := range bc.m {
		n += len(pb.members)
	}
	return n
}

func (bc *batcher) maxFields() int {
	if bc.s.cfg.BatchMaxFields > 0 {
		return bc.s.cfg.BatchMaxFields
	}
	return DefaultBatchMaxFields
}

func (bc *batcher) maxBytes() int64 {
	if bc.s.cfg.BatchMaxBytes > 0 {
		return bc.s.cfg.BatchMaxBytes
	}
	return DefaultBatchMaxBytes
}

func (bc *batcher) linger() time.Duration {
	if bc.s.cfg.BatchLinger != 0 {
		return bc.s.cfg.BatchLinger
	}
	return DefaultBatchLinger
}

// add enqueues m under key and flushes if the batch hit a size trigger or
// coalescing is disabled (negative linger). The first member arms the linger
// timer.
func (bc *batcher) add(key batchKey, m *batchMember, rawBytes int64) {
	bc.mu.Lock()
	pb := bc.m[key]
	if pb == nil {
		pb = &pendingBatch{}
		bc.m[key] = pb
		if lg := bc.linger(); lg > 0 {
			pb.timer = time.AfterFunc(lg, func() { bc.flush(key, pb) })
		}
	}
	pb.members = append(pb.members, m)
	pb.bytes += rawBytes
	full := len(pb.members) >= bc.maxFields() || pb.bytes >= bc.maxBytes() || bc.linger() < 0
	bc.mu.Unlock()
	if full {
		bc.flush(key, pb)
	}
}

// cancel removes m from its pending batch before the flush takes it,
// reporting whether it was still pending. A false return means the flusher
// already owns m and will deliver on its channel regardless.
func (bc *batcher) cancel(key batchKey, m *batchMember) bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	pb := bc.m[key]
	if pb == nil || pb.flushed {
		return false
	}
	for i, other := range pb.members {
		if other == m {
			pb.members = append(pb.members[:i], pb.members[i+1:]...)
			return true
		}
	}
	return false
}

// flush detaches the batch and compresses it through one pool dispatch under
// one pipeline slot, then delivers each member's standalone field container.
func (bc *batcher) flush(key batchKey, pb *pendingBatch) {
	bc.mu.Lock()
	if pb.flushed {
		bc.mu.Unlock()
		return
	}
	pb.flushed = true
	if bc.m[key] == pb {
		delete(bc.m, key)
	}
	if pb.timer != nil {
		pb.timer.Stop()
	}
	members := pb.members
	bc.mu.Unlock()
	if len(members) == 0 {
		return
	}

	// One pipeline slot for the whole batch: this is the resource the
	// coalescing saves, N concurrent small requests occupy one active
	// pipeline instead of N.
	bc.s.slots <- struct{}{}
	defer func() { <-bc.s.slots }()

	flushStart := time.Now()
	// One codec trace for the whole coalesced flush when any member is
	// sampled: the shared recorder collects the batch compression's stage
	// spans once, plus a per-field emit span, and every sampled member
	// merges them into its own request trace — with each field attributed
	// back to the request id that contributed it via memberIDs.
	var wrec *obs.Recorder
	var memberIDs []string
	for _, m := range members {
		if m.sampled {
			wrec = obs.New(traceSpanCap)
			break
		}
	}
	if wrec != nil {
		memberIDs = make([]string, len(members))
		for i, m := range members {
			memberIDs[i] = m.id
		}
	}

	deliver := func(res batchResult) {
		res.flushRec, res.flushStart, res.memberIDs = wrec, flushStart, memberIDs
		for i, m := range members {
			r := res
			r.fieldIndex = i
			m.result <- r
		}
	}
	opts := pfpl.Options{Mode: key.mode, Bound: key.bound, Device: bc.s.dev, Trace: wrec}
	tEnc := wrec.Now()
	var buf []byte
	var err error
	if key.double {
		fields := make([][]float64, len(members))
		for i, m := range members {
			fields[i] = m.vals64
		}
		buf, err = pfpl.CompressBatch64(fields, opts)
	} else {
		fields := make([][]float32, len(members))
		for i, m := range members {
			fields[i] = m.vals32
		}
		buf, err = pfpl.CompressBatch32(fields, opts)
	}
	if err != nil {
		deliver(batchResult{err: err})
		return
	}
	// The whole-batch encode span sits above the per-chunk spans the codec
	// recorded on its device tracks: one dispatch, however many fields.
	wrec.StageSpan(obs.StageEncode, wrec.Track("batch"), 0, tEnc)
	b, err := pfpl.OpenBatch(buf)
	if err != nil {
		deliver(batchResult{err: err})
		return
	}
	bc.s.reg.Histogram("batch.coalesced_fields").Observe(float64(len(members)))
	emitTrack := wrec.Track("batch")
	for i, m := range members {
		tField := wrec.Now()
		fc, err := b.Field(i)
		if err != nil {
			m.result <- batchResult{err: err, flushRec: wrec, flushStart: flushStart, fieldIndex: i, memberIDs: memberIDs}
			continue
		}
		if key.checksum {
			// Per-field trailer, applied after slicing: the response stays
			// byte-identical to an uncoalesced Compress with Checksum set.
			fc, err = core.AppendChecksum(fc)
			if err != nil {
				m.result <- batchResult{err: err, flushRec: wrec, flushStart: flushStart, fieldIndex: i, memberIDs: memberIDs}
				continue
			}
		}
		if wrec != nil {
			rawBytes := int64(len(m.vals32))*4 + int64(len(m.vals64))*8
			wrec.Record(obs.Span{
				Start: tField, Dur: wrec.Now() - tField,
				//pfpl:ignore intwidth i indexes members, capped far below 2^31 by the batch window (BatchMaxFields)
				Track: emitTrack, Unit: int32(i), Stage: obs.StageEmit,
				BytesIn: rawBytes, BytesOut: int64(len(fc)),
			})
			if chunks, raw, _, cerr := pfpl.ChunkOutcomes(fc); cerr == nil {
				wrec.ChunksDone(int64(chunks), int64(raw))
			}
			bc.auditField(key, m, fc)
		}
		m.result <- batchResult{
			data: fc, coalesced: len(members),
			flushRec: wrec, flushStart: flushStart, fieldIndex: i, memberIDs: memberIDs,
		}
	}
}

// auditField round-trips one sampled field and verifies the error bound
// held, feeding the audit counters. Sampled flushes only: a decompression
// per field is exactly the cost head sampling exists to bound.
func (bc *batcher) auditField(key batchKey, m *batchMember, fc []byte) {
	violations := 0
	if key.double {
		recon, err := pfpl.Decompress64(fc, nil, pfpl.Options{Device: bc.s.dev})
		if err != nil {
			violations = len(m.vals64)
		} else {
			violations = pfpl.VerifyBound64(m.vals64, recon, key.mode, key.bound)
		}
	} else {
		recon, err := pfpl.Decompress32(fc, nil, pfpl.Options{Device: bc.s.dev})
		if err != nil {
			violations = len(m.vals32)
		} else {
			violations = pfpl.VerifyBound(m.vals32, recon, key.mode, key.bound)
		}
	}
	if violations > 0 {
		bc.s.reg.Counter("audit.bound.fail").Add(1)
		return
	}
	bc.s.reg.Counter("audit.bound.pass").Add(1)
}

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
	// Coalesced responses echo the id of the request that asked (the
	// telemetry wrapper sets the header from ev); without the wrapper a
	// well-formed caller-supplied id is still echoed here, so batch members
	// can always correlate response to request.
	memberID := ""
	if ev != nil {
		memberID = ev.id
	} else if rid := r.Header.Get("X-Request-Id"); rid != "" && len(rid) <= maxRequestIDLen && isPrintableASCII(rid) {
		memberID = rid
		w.Header().Set("X-Request-Id", rid)
	}

	// Per-request admission: the raw field plus worst-case output. Released
	// when this response is done — a cancellation returns exactly this
	// field's bytes, never the batch's.
	reserve := 2 * int64(len(body))
	tAdm := time.Now()
	if err := s.adm.Acquire(reserve); err != nil {
		switch {
		case errors.Is(err, ErrTooLarge):
			s.count("batch", p.modeName, "too_large")
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		default:
			s.count("batch", p.modeName, "saturated")
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.adm.RetryAfter(reserve))))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		}
		return
	}
	ev.phase(obs.StageAdmissionWait, tAdm)
	t0 := time.Now()
	defer func() { s.adm.Release(reserve, time.Since(t0)) }()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	key := batchKey{mode: p.mode, modeName: p.modeName, bound: p.bound, double: p.double, checksum: p.checksum}
	m := &batchMember{result: make(chan batchResult, 1), id: memberID, sampled: ev.isSampled()}
	if p.double {
		m.vals64 = make([]float64, len(body)/8)
		getLE(m.vals64, body)
	} else {
		m.vals32 = make([]float32, len(body)/4)
		getLE(m.vals32, body)
	}
	tAdd := time.Now()
	s.batch.add(key, m, int64(len(body)))

	var res batchResult
	select {
	case res = <-m.result:
	case <-ctx.Done():
		if s.batch.cancel(key, m) {
			// Still pending: this field leaves the batch; its reservation is
			// released by the deferred Release above, nothing else changes.
			s.count("batch", p.modeName, "canceled")
			http.Error(w, ctx.Err().Error(), http.StatusServiceUnavailable)
			return
		}
		// The flusher already took the batch; its delivery is imminent and
		// the buffered channel makes it non-blocking either way.
		res = <-m.result
	}
	if ev != nil && !res.flushStart.IsZero() {
		// The linger window is this member's wait from enqueue to the
		// flusher picking the batch up — the latency cost of coalescing.
		ev.phaseUntil(obs.StageLinger, tAdd, res.flushStart)
		ev.coalesced = res.coalesced
		ev.flushRec = res.flushRec
		ev.flushStart = res.flushStart
		ev.fieldIndex = res.fieldIndex
		ev.memberIDs = res.memberIDs
	}
	if res.err != nil {
		s.finishError(w, "batch", p.modeName, false, res.err)
		return
	}
	ev.setBytes(int64(len(body)), int64(len(res.data)))
	digest := core.FrameDigest(res.data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.data)))
	w.Header().Set("X-Pfpl-Digest", hex.EncodeToString(digest[:]))
	w.Header().Set("X-Pfpl-Coalesced", strconv.Itoa(res.coalesced))
	if _, err := w.Write(res.data); err != nil {
		s.count("batch", p.modeName, "error")
		return
	}
	s.count("batch", p.modeName, "ok")
	s.reg.Counter("bytes.in").Add(int64(len(body)))
	s.reg.Counter("bytes.out").Add(int64(len(res.data)))
	s.reg.Histogram("latency_ns.batch").Observe(float64(time.Since(t0).Nanoseconds()))
	if len(res.data) > 0 {
		s.observeRatio("ratio.batch", float64(len(body))/float64(len(res.data)), ev)
	}
}
