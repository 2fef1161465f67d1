package core

import (
	"fmt"
	"sync"

	"pfpl/internal/bits"
	"pfpl/internal/obs"
)

// The format plan: every executor (serial, parallel CPU, simulated GPU)
// runs the same three steps. Plan turns the caller's input into container
// layouts — PlanEncode on the compress side, PlanDecode (after BatchFields
// for a batch container) on the decompress side. Dispatch runs the
// per-chunk kernels over every planned field's chunks, which is the only
// step that differs between executors. Emit concatenates each field's chunk
// payloads in chunk order and, for a batch, packs the finished containers
// with PackBatch. A single field is a one-field batch throughout, so the
// layout decisions exist exactly once and cannot drift between executors.

// Float is the value type of the codec. The orchestration layers are
// generic over it alone; the chunk codec below them is generic over T and
// the word W of T's width (bits.Word), and newKernels is the one place that
// pairs float32 with uint32 and float64 with uint64.
type Float interface{ float32 | float64 }

// IsPrec64 reports whether T is float64.
func IsPrec64[T Float]() bool {
	var z T
	_, ok := any(z).(float64)
	return ok
}

// chunkWordsOf returns the values per full chunk for element type T.
func chunkWordsOf[T Float]() int {
	if IsPrec64[T]() {
		return ChunkWords64
	}
	return ChunkWords32
}

// EncodePlan is one field's compression layout.
type EncodePlan[T Float] struct {
	Src    []T
	Params Params
	Header Header
	// Head holds the serialized header and the zeroed chunk-size table.
	Head []byte
	// MaxLen is the worst-case container length, every chunk stored raw.
	// Executors that place chunks by offset allocate it up front.
	MaxLen int
}

// PlanEncode derives a field's quantizer parameters, container header,
// header bytes and worst-case length from (mode, bound, values). It is the only place a
// container header is built from user input.
func PlanEncode[T Float](src []T, mode Mode, bound float64) (EncodePlan[T], error) {
	prec64 := IsPrec64[T]()
	var rng float64
	if mode == NOA {
		rng = Range(src)
	}
	p, err := NewParams(mode, bound, rng, prec64)
	if err != nil {
		return EncodePlan[T]{}, err
	}
	h := Header{
		Mode:      mode,
		Prec64:    prec64,
		Raw:       p.Raw,
		Bound:     bound,
		NOARange:  rng,
		Count:     uint64(len(src)),
		NumChunks: NumChunksFor(len(src), chunkWordsOf[T]()),
	}
	head := AppendHeader(nil, &h)
	maxLen := len(head) + len(src)*(ChunkBytes/chunkWordsOf[T]())
	return EncodePlan[T]{Src: src, Params: p, Header: h, Head: head, MaxLen: maxLen}, nil
}

// Buffer returns a fresh MaxLen-byte output that begins with Head, for
// executors that place chunk payloads by offset.
func (pl *EncodePlan[T]) Buffer() []byte {
	return append(pl.Head[:len(pl.Head):len(pl.Head)], make([]byte, pl.MaxLen-len(pl.Head))...)
}

// Chunk returns the values of chunk c.
func (pl *EncodePlan[T]) Chunk(c int) []T {
	w := chunkWordsOf[T]()
	return pl.Src[c*w : min(c*w+w, len(pl.Src))]
}

// DecodePlan is one field's decompression layout.
type DecodePlan[T Float] struct {
	Params  Params
	Header  Header
	Offsets []int  // chunk payload offsets within Payload
	Lengths []int  // chunk payload lengths
	Raws    []bool // chunks stored raw
	Payload []byte
	Dst     []T // sized to the element count
}

// PlanDecode validates a field container and sizes its output, in this
// order: ParseHeader, the precision check, ParamsForHeader, ChunkTable, and
// only then dst. The chunk table ties every declared size to bytes present
// in buf, so an untrusted element count never sizes an allocation the
// buffer cannot back. dst is reused when its capacity suffices.
func PlanDecode[T Float](buf []byte, dst []T) (DecodePlan[T], error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return DecodePlan[T]{}, err
	}
	if h.Prec64 != IsPrec64[T]() {
		return DecodePlan[T]{}, ErrCorrupt
	}
	p, err := ParamsForHeader(&h)
	if err != nil {
		return DecodePlan[T]{}, err
	}
	offsets, lengths, raws, payload, err := ChunkTable(buf, &h)
	if err != nil {
		return DecodePlan[T]{}, err
	}
	n := h.Len()
	if cap(dst) < n {
		dst = make([]T, n)
	}
	return DecodePlan[T]{
		Params: p, Header: h, Offsets: offsets, Lengths: lengths, Raws: raws,
		Payload: payload, Dst: dst[:n],
	}, nil
}

// ChunkPayload returns chunk c's stored payload and raw flag.
func (pl *DecodePlan[T]) ChunkPayload(c int) ([]byte, bool) {
	return pl.Payload[pl.Offsets[c] : pl.Offsets[c]+pl.Lengths[c]], pl.Raws[c]
}

// ChunkDst returns the output values of chunk c.
func (pl *DecodePlan[T]) ChunkDst(c int) []T {
	w := chunkWordsOf[T]()
	return pl.Dst[c*w : min(c*w+w, len(pl.Dst))]
}

// Executor is the dispatch step of one executor for element type T: it
// runs every chunk of every planned field and emits each field's finished
// container (Encode) or values (Decode, into the plans' Dst). An executor
// sees only plans, so the container layout cannot differ between executors.
type Executor[T Float] interface {
	Encode(plans []EncodePlan[T], rec *obs.Recorder) [][]byte
	Decode(plans []DecodePlan[T], rec *obs.Recorder) error
}

// Compress runs one field through ex: a single field is a one-field batch.
func Compress[T Float](ex Executor[T], src []T, mode Mode, bound float64, rec *obs.Recorder) ([]byte, error) {
	pl, err := PlanEncode(src, mode, bound)
	if err != nil {
		return nil, err
	}
	return ex.Encode([]EncodePlan[T]{pl}, rec)[0], nil
}

// Decompress decodes one field container on ex into dst (reused when its
// capacity suffices).
func Decompress[T Float](ex Executor[T], buf []byte, dst []T, rec *obs.Recorder) ([]T, error) {
	pl, err := PlanDecode(buf, dst)
	if err != nil {
		return nil, err
	}
	if err := ex.Decode([]DecodePlan[T]{pl}, rec); err != nil {
		return nil, err
	}
	return pl.Dst, nil
}

// CompressBatch compresses every field through one dispatch on ex and packs
// the containers into a batch container.
func CompressBatch[T Float](ex Executor[T], fields [][]T, mode Mode, bound float64, rec *obs.Recorder) ([]byte, error) {
	plans := make([]EncodePlan[T], len(fields))
	for i, src := range fields {
		// NewParams errors depend only on the shared mode, bound and
		// precision, never on a field's values, so no field is named.
		pl, err := PlanEncode(src, mode, bound)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
	}
	return PackBatch(ex.Encode(plans, rec), IsPrec64[T]())
}

// DecompressBatch decodes every field of a batch container (checksum
// trailer already stripped) through one dispatch on ex.
func DecompressBatch[T Float](ex Executor[T], buf []byte, rec *obs.Recorder) ([][]T, error) {
	comps, err := BatchFields(buf, IsPrec64[T]())
	if err != nil {
		return nil, err
	}
	plans := make([]DecodePlan[T], len(comps))
	for i, fc := range comps {
		if plans[i], err = PlanDecode[T](fc, nil); err != nil {
			return nil, fmt.Errorf("batch field %d: %w", i, err)
		}
	}
	if err := ex.Decode(plans, rec); err != nil {
		return nil, err
	}
	out := make([][]T, len(plans))
	for i := range plans {
		out[i] = plans[i].Dst
	}
	return out, nil
}

// ChunkStarts builds the cumulative chunk-start table over n fields with
// chunks(f) chunks each: entry f is field f's first global chunk index and
// the last entry is the total. Executors dispatch over global chunk indices
// so one work queue covers every field.
func ChunkStarts(n int, chunks func(f int) int) []int {
	starts := make([]int, n+1)
	for f := 0; f < n; f++ {
		starts[f+1] = starts[f] + chunks(f)
	}
	return starts
}

// FieldOfChunk locates the field owning global chunk g: the largest f with
// starts[f] <= g. Zero-chunk fields own no index and are skipped naturally.
//
//pfpl:hotpath
func FieldOfChunk(starts []int, g int) int {
	lo, hi := 0, len(starts)-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Kernels is one worker's concrete chunk codec for element type T:
// EncodeChunk and DecodeChunk bound to that worker's scratch and recorder
// track. The precision is chosen once, when the worker starts, so generic
// orchestration makes one indirect call per 16 kB chunk and never reaches
// a kernel through a generic dictionary.
type Kernels[T Float] struct {
	Encode func(p *Params, src []T, unit int32) (payload []byte, raw bool)
	Decode func(p *Params, payload []byte, raw bool, dst []T, unit int32) error

	bind func(rec *obs.Recorder, track int32)
}

// kernelStack keeps released kernels and their scratch for reuse, so a
// dispatch over a few chunks does not allocate and zero tens of kilobytes
// of scratch per worker. Unlike a sync.Pool it survives garbage collection
// and serves every P alike: the scratch is sized once, the way a DAQ
// compressor sizes its buffers, and a warm process stops allocating it. It
// keeps at most maxFreeKernels, which bounds what an idle process holds at
// about 4 MB of float32 and 5 MB of float64 scratch; kernels released
// beyond that are left to the collector.
type kernelStack struct {
	mu   sync.Mutex
	free []any // *Kernels[T] of the stack's precision
}

const maxFreeKernels = 64

// kernelStacks holds one stack per precision; index 1 is float64.
var kernelStacks [2]kernelStack

func stackOf[T Float]() *kernelStack {
	if IsPrec64[T]() {
		return &kernelStacks[1]
	}
	return &kernelStacks[0]
}

// GetKernels takes released kernels for T (or makes new ones) and binds them
// to rec's track. A nil rec disables tracing at no cost. Return them with
// Release once the dispatch is done.
func GetKernels[T Float](rec *obs.Recorder, track int32) *Kernels[T] {
	var k *Kernels[T]
	st := stackOf[T]()
	st.mu.Lock()
	if n := len(st.free); n > 0 {
		k = st.free[n-1].(*Kernels[T])
		st.free[n-1] = nil
		st.free = st.free[:n-1]
	}
	st.mu.Unlock()
	if k == nil {
		k = newKernels[T]()
	}
	k.bind(rec, track)
	return k
}

// Release unbinds k from its recorder and keeps it for the next GetKernels.
// k must not be used afterwards.
func (k *Kernels[T]) Release() {
	k.bind(nil, 0)
	st := stackOf[T]()
	st.mu.Lock()
	if len(st.free) < maxFreeKernels {
		st.free = append(st.free, k)
	}
	st.mu.Unlock()
}

// newKernels binds fresh scratch to the kernels for T. It is the one place a
// value type is paired with the word of its width.
func newKernels[T Float]() *Kernels[T] {
	var k any
	if IsPrec64[T]() {
		k = bindKernels(&Scratch64{})
	} else {
		k = bindKernels(&Scratch32{})
	}
	return k.(*Kernels[T])
}

func bindKernels[T Float, W bits.Word](s *Scratch[T, W]) *Kernels[T] {
	return &Kernels[T]{
		Encode: func(p *Params, src []T, unit int32) ([]byte, bool) {
			s.Unit = unit
			return EncodeChunk(p, src, s)
		},
		Decode: func(p *Params, payload []byte, raw bool, dst []T, unit int32) error {
			s.Unit = unit
			return DecodeChunk(p, payload, raw, dst, s)
		},
		bind: func(rec *obs.Recorder, track int32) {
			s.Rec, s.Track = rec, track
		},
	}
}
