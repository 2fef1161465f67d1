package server

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pfpl"
	"pfpl/internal/core"
)

// Object storage: PUT a framed compressed stream once, answer value-window
// and HTTP Range queries against it forever without a full decode. Objects
// are split into their frames at upload; each frame is stored once,
// content-addressed by its SHA-256 (the same digest the footer index
// carries), so identical frames across uploads share bytes. Cached frame
// bytes are charged to the server's admission budget: a cache that cannot
// grow without shedding load is how the store inherits the daemon's "bounded
// memory, backpressure instead of collapse" contract. Frames still
// referenced by an object are pinned; frames orphaned by DELETE or
// re-upload stay cached in an LRU and are evicted when the budget needs
// the room.

// cachedFrame is one content-addressed frame in the store.
type cachedFrame struct {
	data []byte
	refs int           // objects referencing this frame
	idle *list.Element // position on the idle LRU while refs == 0
}

// frameStore deduplicates frames by digest and owns the idle-frame LRU.
type frameStore struct {
	adm   *Admission
	s     *Server
	bytes *expvar.Int // cache.bytes, the admission-charged bytes held

	mu      sync.Mutex
	entries map[[core.DigestSize]byte]*cachedFrame
	idle    *list.List // of [core.DigestSize]byte, front = most recent
}

func newFrameStore(adm *Admission, s *Server) *frameStore {
	return &frameStore{
		adm:     adm,
		s:       s,
		bytes:   s.reg.Counter("cache.bytes"),
		entries: make(map[[core.DigestSize]byte]*cachedFrame),
		idle:    list.New(),
	}
}

// stats reports the cache's current occupancy for /v1/status: total cached
// frames, how many of those are idle (unreferenced, evictable), and the
// admission-charged bytes they hold.
func (fs *frameStore) stats() (frames, idleFrames int, bytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.entries), fs.idle.Len(), fs.bytes.Value()
}

// put interns data under digest and takes one reference. A present entry is
// a cache hit and costs nothing; a new frame is charged to the admission
// budget, evicting idle frames (oldest first) to make room. data is not
// retained on failure.
func (fs *frameStore) put(digest [core.DigestSize]byte, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if e, ok := fs.entries[digest]; ok {
		fs.s.reg.Counter("cache.frames.hit").Add(1)
		if e.refs == 0 && e.idle != nil {
			fs.idle.Remove(e.idle)
			e.idle = nil
		}
		e.refs++
		return nil
	}
	n := int64(len(data))
	for fs.adm.Acquire(n) != nil {
		if !fs.evictOldestLocked() {
			return ErrSaturated
		}
	}
	fs.s.reg.Counter("cache.frames.miss").Add(1)
	fs.bytes.Add(n)
	fs.entries[digest] = &cachedFrame{data: bytes.Clone(data), refs: 1}
	return nil
}

// get returns the frame bytes for digest. Referenced frames are always
// present; idle ones may have been evicted.
func (fs *frameStore) get(digest [core.DigestSize]byte) ([]byte, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.entries[digest]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// release drops one reference. The frame stays cached (it may dedup a
// future upload) but becomes evictable.
func (fs *frameStore) release(digest [core.DigestSize]byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, ok := fs.entries[digest]
	if !ok {
		return
	}
	if e.refs--; e.refs == 0 {
		e.idle = fs.idle.PushFront(digest)
	}
}

// evictOldestLocked evicts the least-recently-idled unreferenced frame,
// handing its bytes back to the admission budget. Reports whether anything
// could be evicted.
func (fs *frameStore) evictOldestLocked() bool {
	back := fs.idle.Back()
	if back == nil {
		return false
	}
	digest := back.Value.([core.DigestSize]byte)
	e := fs.entries[digest]
	fs.idle.Remove(back)
	delete(fs.entries, digest)
	fs.adm.Release(int64(len(e.data)), 0)
	fs.s.reg.Counter("cache.frames.evicted").Add(1)
	fs.bytes.Add(-int64(len(e.data)))
	return true
}

// objectFrame is one frame's slot in an object: which cached frame, and how
// many values it contributes.
type objectFrame struct {
	digest [core.DigestSize]byte
	values int64
}

// object is stored metadata for one uploaded stream.
type object struct {
	frames []objectFrame
	cum    []int64 // cum[i] = values before frame i; len = len(frames)+1
	double bool
	size   int64 // compressed upload size in bytes
}

func (o *object) values() int64 { return o.cum[len(o.cum)-1] }

func (o *object) elemSize() int64 {
	if o.double {
		return 8
	}
	return 4
}

// objectStore maps names to objects.
type objectStore struct {
	mu     sync.Mutex
	byName map[string]*object
}

// ---- handlers ----

// maxObjectBytes caps a single uploaded object; anything larger should be
// range-queried from real storage, not a RAM cache.
const maxObjectBytes = 1 << 30

func (s *Server) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	x := s.enter(routeObjects, r)
	name := r.PathValue("name")
	if r.ContentLength < 0 {
		x.done(outcomeClientError)
		http.Error(w, "Content-Length required for object upload", http.StatusLengthRequired)
		return
	}
	if r.ContentLength > maxObjectBytes {
		x.done(outcomeTooLarge)
		http.Error(w, "object exceeds the served size cap", http.StatusRequestEntityTooLarge)
		return
	}
	// The upload buffer itself is charged to the budget for the duration of
	// the request; the frames the store keeps are charged separately by put.
	release, ok := s.admit(w, r, x, r.ContentLength)
	if !ok {
		return
	}
	defer release()
	body := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		x.done(outcomeClientError)
		http.Error(w, "short body: "+err.Error(), http.StatusBadRequest)
		return
	}
	obj, frames, err := s.ingestObject(body)
	if err != nil {
		o, status := outcomeClientError, http.StatusBadRequest
		if errors.Is(err, ErrSaturated) {
			o, status = outcomeSaturated, http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.adm.RetryAfter(int64(len(body))))))
		}
		x.done(o)
		http.Error(w, err.Error(), status)
		return
	}
	s.objects.mu.Lock()
	old := s.objects.byName[name]
	s.objects.byName[name] = obj
	s.objects.mu.Unlock()
	if old != nil {
		for _, f := range old.frames {
			s.frames.release(f.digest)
		}
	}
	x.done(outcomeOK)
	s.reg.Counter("bytes.in").Add(int64(len(body)))
	w.Header().Set("X-Pfpl-Frames", strconv.Itoa(frames))
	w.Header().Set("X-Pfpl-Values", strconv.FormatInt(obj.values(), 10))
	w.WriteHeader(http.StatusCreated)
}

// ingestObject splits a framed upload into content-addressed frames,
// interning each in the frame store, and returns the object metadata. When
// the stream carries a footer index, the index is cross-checked against the
// frames actually scanned — offsets, value counts, and digests must agree,
// so a stream whose index lies about its frames is rejected rather than
// served wrong. On error, references taken so far are dropped.
func (s *Server) ingestObject(body []byte) (obj *object, frames int, err error) {
	if len(body) < framePrefix+containerHeaderLen ||
		string(body[:4]) == "PFPL" ||
		string(body[framePrefix:framePrefix+4]) != "PFPL" {
		return nil, 0, errors.New("body is not a framed pfpl stream (compress with the streaming endpoint or pfpl -stream)")
	}

	// If an index trailer is present, parse it up front (OpenIndexed also
	// re-verifies frame 0's header against the index).
	var indexed []pfpl.FrameEntry
	frameArea := int64(len(body))
	if x, oerr := pfpl.OpenIndexed(bytes.NewReader(body), int64(len(body))); oerr == nil {
		indexed = x.Entries()
		frameArea = 0
		if len(indexed) > 0 {
			last := indexed[len(indexed)-1]
			frameArea = last.Offset + framePrefix + last.Length
		}
	} else if !errors.Is(oerr, pfpl.ErrNoIndex) {
		return nil, 0, fmt.Errorf("footer index: %w", oerr)
	}

	o := &object{cum: []int64{0}, size: int64(len(body))}
	taken := make([][core.DigestSize]byte, 0, 8)
	defer func() {
		if err != nil {
			for _, d := range taken {
				s.frames.release(d)
			}
		}
	}()
	for off := int64(0); off < frameArea; {
		if off+framePrefix > frameArea {
			return nil, 0, errors.New("truncated frame prefix")
		}
		word := binary.LittleEndian.Uint32(body[off:])
		if word == core.IndexMagicWord && indexed == nil {
			// Footer of an index we failed to open — unreachable, but guard.
			return nil, 0, errors.New("unexpected index block")
		}
		n := int64(word)
		if n <= 0 || off+framePrefix+n > frameArea {
			return nil, 0, fmt.Errorf("frame %d at byte %d truncated or corrupt", len(o.frames), off)
		}
		frame := body[off+framePrefix : off+framePrefix+n]
		info, serr := pfpl.Stat(frame)
		if serr != nil {
			return nil, 0, fmt.Errorf("frame %d: %w", len(o.frames), serr)
		}
		if len(o.frames) > 0 && info.Double != o.double {
			return nil, 0, errors.New("frames disagree on precision")
		}
		o.double = info.Double
		digest := core.FrameDigest(frame)
		if indexed != nil {
			i := len(o.frames)
			if i >= len(indexed) {
				return nil, 0, errors.New("stream has more frames than its index")
			}
			e := indexed[i]
			if e.Offset != off || e.Length != n || e.Digest != digest || e.Values != int64(info.Count) {
				return nil, 0, fmt.Errorf("index disagrees with frame %d", i)
			}
		}
		if perr := s.frames.put(digest, frame); perr != nil {
			return nil, 0, perr
		}
		taken = append(taken, digest)
		o.frames = append(o.frames, objectFrame{digest: digest, values: int64(info.Count)})
		o.cum = append(o.cum, o.cum[len(o.cum)-1]+int64(info.Count))
		off += framePrefix + n
	}
	if indexed != nil && len(o.frames) != len(indexed) {
		return nil, 0, errors.New("index lists more frames than the stream holds")
	}
	return o, len(o.frames), nil
}

func (s *Server) lookupObject(name string) *object {
	s.objects.mu.Lock()
	defer s.objects.mu.Unlock()
	return s.objects.byName[name]
}

func (s *Server) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	x := s.enter(routeObjects, r)
	obj := s.lookupObject(r.PathValue("name"))
	if obj == nil {
		x.done(outcomeNotFound)
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	elem := obj.elemSize()
	totalBytes := obj.values() * elem

	// The window can arrive as ?offset=&count= (element units) or as an
	// HTTP Range header (byte units over the decoded representation). A
	// byte range is widened to covering elements; the response is the
	// exact requested bytes with a 206 + Content-Range.
	offset, count := int64(0), obj.values()
	status := http.StatusOK
	var trimHead, trimTail int64
	if q := r.URL.Query(); q.Get("offset") != "" || q.Get("count") != "" {
		var err error
		offset, count, err = parseWindowQuery(q.Get("offset"), q.Get("count"), obj.values())
		if err != nil {
			x.done(outcomeClientError)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else if rng := r.Header.Get("Range"); rng != "" {
		start, end, err := parseByteRange(rng, totalBytes)
		if err != nil {
			x.done(outcomeClientError)
			w.Header().Set("Content-Range", "bytes */"+strconv.FormatInt(totalBytes, 10))
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		offset = start / elem
		count = (end+elem-1)/elem - offset
		trimHead = start - offset*elem
		trimTail = count*elem - trimHead - (end - start)
		status = http.StatusPartialContent
		w.Header().Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/%d", start, end-1, totalBytes))
	}

	// Fetch and digest-verify every covering frame *before* committing a
	// status line: a frame corrupted in the cache answers a clean 500
	// instead of an aborted 200. Frames come from the content-addressed
	// cache; only the covering ones are touched, and of those only the
	// covering chunks decode.
	first := sort.Search(len(obj.frames), func(i int) bool { return obj.cum[i+1] > offset })
	var covering [][]byte
	if count > 0 {
		for i := first; i < len(obj.frames) && obj.cum[i] < offset+count; i++ {
			f := obj.frames[i]
			frame, ok := s.frames.get(f.digest)
			if !ok {
				s.serveObjectError(w, x, false, errors.New("frame missing from cache"))
				return
			}
			if core.FrameDigest(frame) != f.digest {
				s.serveObjectError(w, x, false, errors.New("cached frame failed digest verification"))
				return
			}
			covering = append(covering, frame)
		}
	}
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(count*elem-trimHead-trimTail, 10))
	w.WriteHeader(status)
	if r.Method == http.MethodHead || count == 0 {
		x.done(outcomeOK)
		return
	}

	var sent int64
	remaining := count
	pos := offset
	for i := first; i < len(obj.frames) && remaining > 0; i++ {
		f := obj.frames[i]
		localOff := pos - obj.cum[i]
		localCnt := min(remaining, f.values-localOff)
		out, derr := s.decodeFrameRange(obj, covering[i-first], localOff, localCnt)
		if derr != nil {
			// The status line is already out; aborting the connection is the
			// only honest signal left (see finishError).
			s.serveObjectError(w, x, true, derr)
			return
		}
		// Byte-range trims apply at the window's edges only.
		if i == first && trimHead > 0 {
			out = out[trimHead:]
		}
		if remaining == localCnt && trimTail > 0 {
			out = out[:int64(len(out))-trimTail]
		}
		if _, werr := w.Write(out); werr != nil {
			x.done(outcomeCanceled)
			return
		}
		sent += int64(len(out))
		pos += localCnt
		remaining -= localCnt
	}
	x.done(outcomeOK)
	s.reg.Counter("bytes.out").Add(sent)
}

// decodeFrameRange decodes localCnt values at localOff from one cached
// frame, returning their little-endian byte representation, and accounts
// the chunks touched.
func (s *Server) decodeFrameRange(obj *object, frame []byte, localOff, localCnt int64) ([]byte, error) {
	if localOff < 0 || localCnt <= 0 || localOff > math.MaxInt || localCnt > math.MaxInt {
		return nil, fmt.Errorf("object range [%d,+%d) is not addressable on this architecture", localOff, localCnt)
	}
	words := int64(core.ChunkWords32)
	if obj.double {
		words = core.ChunkWords64
	}
	s.reg.Counter("objects.chunks_decoded").Add((localOff+localCnt-1)/words - localOff/words + 1)
	if obj.double {
		vals, err := pfpl.DecompressRange64(frame, int(localOff), int(localCnt))
		if err != nil {
			return nil, err
		}
		out := make([]byte, 8*len(vals))
		putLE(out, vals)
		return out, nil
	}
	vals, err := pfpl.DecompressRange32(frame, int(localOff), int(localCnt))
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4*len(vals))
	putLE(out, vals)
	return out, nil
}

// serveObjectError reports a failure mid-GET: before any body bytes a clean
// status goes out; after, the connection aborts (see finishError).
func (s *Server) serveObjectError(w http.ResponseWriter, x reqExit, streamed bool, err error) {
	x.done(outcomeError)
	if streamed {
		abort()
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	x := s.enter(routeObjects, r)
	name := r.PathValue("name")
	s.objects.mu.Lock()
	obj := s.objects.byName[name]
	delete(s.objects.byName, name)
	s.objects.mu.Unlock()
	if obj == nil {
		x.done(outcomeNotFound)
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	for _, f := range obj.frames {
		s.frames.release(f.digest)
	}
	x.done(outcomeOK)
	w.WriteHeader(http.StatusNoContent)
}

// parseWindowQuery validates an element-unit window against an object of n
// values, with the same overflow-safe shape as DecompressRange.
func parseWindowQuery(offStr, cntStr string, n int64) (offset, count int64, err error) {
	offset, count = 0, n
	if offStr != "" {
		if offset, err = strconv.ParseInt(offStr, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad offset %q", offStr)
		}
	}
	if cntStr != "" {
		if count, err = strconv.ParseInt(cntStr, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad count %q", cntStr)
		}
	} else {
		count = n - offset
	}
	if offset < 0 || count < 0 || offset > n || count > n-offset {
		return 0, 0, fmt.Errorf("window [%d:+%d) outside object of %d values", offset, count, n)
	}
	return offset, count, nil
}

// parseByteRange parses a single-range "bytes=start-end" header against a
// representation of total bytes, returning the half-open [start, end).
// Suffix ranges ("bytes=-n") and open ends ("bytes=start-") are supported;
// multipart ranges are not.
func parseByteRange(h string, total int64) (start, end int64, err error) {
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok || strings.Contains(spec, ",") {
		return 0, 0, fmt.Errorf("unsupported Range %q", h)
	}
	lo, hi, ok := strings.Cut(strings.TrimSpace(spec), "-")
	if !ok {
		return 0, 0, fmt.Errorf("malformed Range %q", h)
	}
	if lo == "" { // suffix: last hi bytes
		n, perr := strconv.ParseInt(hi, 10, 64)
		if perr != nil || n <= 0 {
			return 0, 0, fmt.Errorf("malformed Range %q", h)
		}
		if n > total {
			n = total
		}
		return total - n, total, nil
	}
	start, err = strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, fmt.Errorf("malformed Range %q", h)
	}
	end = total
	if hi != "" {
		last, perr := strconv.ParseInt(hi, 10, 64)
		if perr != nil || last < start {
			return 0, 0, fmt.Errorf("malformed Range %q", h)
		}
		if last < total-1 {
			end = last + 1
		}
	}
	if start >= total {
		return 0, 0, fmt.Errorf("range start %d beyond object of %d bytes", start, total)
	}
	return start, end, nil
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// clamped to at least 1: "Retry-After: 0" invites an immediate hammer-retry
// loop, which is the opposite of what the header is for.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		return 1
	}
	return secs
}
