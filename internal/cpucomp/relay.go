package cpucomp

import (
	"sync/atomic"

	"pfpl/internal/core"
)

// relay concatenates the chunk payloads of every planned field in chunk
// order without anyone waiting for a predecessor. It is the shared carry of
// §III.E passed along instead of waited on: chunk c's output offset is the
// end of chunk c-1, and whichever of two parties arrives at chunk c second
// emits it.
//
// The two parties are chunk c's finisher, which parks the payload in c's
// worst-case slot of the output (len(Head) + c*ChunkBytes, reserved by the
// MaxLen buffer), and the emitter of chunk c-1, which publishes c's start
// offset. Emitting moves the payload down to that offset (never past its
// slot: every earlier chunk is at most ChunkBytes) and then arrives at
// chunk c+1, so one emitter can carry the chain through every chunk that
// finished early. Placement is the serial encoder's by construction, so the
// bytes never depend on scheduling.
type relay struct {
	outs   [][]byte // per field: the MaxLen buffer, cut to its length at the end
	heads  []int    // per field: len(Head), where chunk 0's slot starts
	ends   []int    // per field: the container length, set by the last emitter
	starts []int    // core.ChunkStarts over the fields
	chunks []relayChunk
}

// relayChunk is one global chunk's meeting point. start is written by the
// predecessor's emitter and size by the finisher, each before it arrives;
// the atomic arrival orders those writes before the emitter's reads.
type relayChunk struct {
	arrived atomic.Int32
	start   int
	size    int
}

// newRelay prepares the outputs of plans for chunks indexed by starts. The
// first chunk of every field finds its predecessor already emitted.
func newRelay[T core.Float](plans []core.EncodePlan[T], starts []int) *relay {
	r := &relay{
		outs:   make([][]byte, len(plans)),
		heads:  make([]int, len(plans)),
		ends:   make([]int, len(plans)),
		starts: starts,
		chunks: make([]relayChunk, starts[len(plans)]),
	}
	for f := range plans {
		r.outs[f] = plans[f].Buffer()
		r.heads[f] = len(plans[f].Head)
		r.ends[f] = r.heads[f]
		if starts[f] < starts[f+1] {
			first := &r.chunks[starts[f]]
			first.start = r.heads[f]
			first.arrived.Store(1)
		}
	}
	return r
}

// finish hands over chunk c of field f (global chunk g): it records the
// chunk's size entry, places the payload, and emits it if the predecessor
// already has. payload may alias the caller's scratch; it is copied before
// finish returns.
func (r *relay) finish(f, c, g int, payload []byte, raw bool) {
	out := r.outs[f]
	core.PutChunkSize(out, c, len(payload), raw)
	ch := &r.chunks[g]
	ch.size = len(payload)
	if ch.arrived.Load() == 1 {
		// The predecessor is emitted and nobody else touches this chunk:
		// write straight to the final offset.
		copy(out[ch.start:], payload)
		r.emit(f, c, g, ch.start)
		return
	}
	at := r.heads[f] + c*core.ChunkBytes
	copy(out[at:], payload)
	if ch.arrived.Add(1) == 2 {
		r.emit(f, c, g, at)
	}
}

// emit moves chunk c of field f (global chunk g), whose payload is at byte
// at of the output, to its final offset, then relays the end offset to the
// next chunk, emitting that one too if its finisher has already arrived.
func (r *relay) emit(f, c, g, at int) {
	out := r.outs[f]
	last := r.starts[f+1] - 1
	for {
		ch := &r.chunks[g]
		end := ch.start + ch.size
		if at != ch.start {
			copy(out[ch.start:end], out[at:at+ch.size])
		}
		if g == last {
			r.ends[f] = end
			return
		}
		c, g = c+1, g+1
		next := &r.chunks[g]
		next.start = end
		if next.arrived.Add(1) == 1 {
			return // its finisher emits it
		}
		at = r.heads[f] + c*core.ChunkBytes
	}
}

// containers returns each field's finished container. Call it only after
// every chunk has finished.
func (r *relay) containers() [][]byte {
	for f, end := range r.ends {
		r.outs[f] = r.outs[f][:end]
	}
	return r.outs
}
