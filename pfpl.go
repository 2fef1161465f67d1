// Package pfpl implements PFPL (Portable Floating-Point Lossy), an
// error-bounded lossy compressor for single- and double-precision
// floating-point data, reproducing:
//
//	Fallin, Azami, Di, Cappello, Burtscher.
//	"Fast and Effective Lossy Compression on GPUs and CPUs with Guaranteed
//	Error Bounds." IPDPS 2025.
//
// PFPL supports three point-wise error-bound types — absolute (ABS),
// relative (REL), and range-normalized absolute (NOA) — and guarantees the
// requested bound for every value by losslessly storing any value whose
// quantized reconstruction would violate it. Special values (NaN, ±Inf,
// denormals) are handled. The compressed stream is bit-for-bit identical
// across all executors: serial, parallel CPU, and the simulated-GPU device
// that executes the CUDA formulation of the algorithm.
//
// # Quick start
//
//	data := []float32{...}
//	comp, err := pfpl.Compress32(data, pfpl.Options{Mode: pfpl.ABS, Bound: 1e-3})
//	...
//	out, err := pfpl.Decompress32(comp, nil, pfpl.Options{})
//
// Every reconstructed value v' of an original v satisfies, by mode:
//
//	ABS: |v - v'| <= Bound
//	REL: |v - v'| / |v| <= Bound, and v' has the sign of v
//	NOA: |v - v'| <= Bound * (max(data) - min(data))
//
// evaluated in double precision exactly as written.
package pfpl

import (
	"pfpl/internal/core"
	"pfpl/internal/cpucomp"
)

// Mode selects the error-bound type.
type Mode = core.Mode

// The three supported point-wise error-bound types (paper §II).
const (
	// ABS bounds |x - x'| by the error bound.
	ABS = core.ABS
	// REL bounds |x - x'| / |x| by the error bound and preserves the sign.
	REL = core.REL
	// NOA bounds |x - x'| by the error bound times the input value range.
	NOA = core.NOA
)

// Stream-format and validation errors re-exported for callers using
// errors.Is.
var (
	ErrBadBound   = core.ErrBadBound
	ErrBoundSmall = core.ErrBoundSmall
	ErrCorrupt    = core.ErrCorrupt
)

// Device abstracts where (de)compression executes. Implementations must be
// bit-compatible: for identical inputs and options, every Device produces
// the identical compressed stream, and decompressing any stream on any
// Device yields identical values. This is the paper's central portability
// property, and the test suite enforces it across all provided devices.
type Device interface {
	// Name identifies the device in benchmark output.
	Name() string

	Compress32(src []float32, mode Mode, bound float64) ([]byte, error)
	Decompress32(buf []byte, dst []float32) ([]float32, error)
	Compress64(src []float64, mode Mode, bound float64) ([]byte, error)
	Decompress64(buf []byte, dst []float64) ([]float64, error)
}

// Options configures compression and decompression.
type Options struct {
	// Mode is the error-bound type (compression only).
	Mode Mode
	// Bound is the error bound; it must be positive and finite. For ABS it
	// must be at least the smallest positive normal value of the data type.
	Bound float64
	// Device selects the executor. Nil selects the parallel CPU device.
	Device Device
	// Checksum appends a CRC-32C trailer to the compressed stream and
	// verifies it on decompression, turning silent bit corruption into a
	// clean error. The trailer is byte-identical across devices.
	Checksum bool
	// Trace, when non-nil, collects per-chunk stage spans and aggregate
	// statistics from the executor (see NewTracer). Tracing never changes
	// the output bytes; a Device that does not support tracing runs
	// untraced. Nil disables tracing at zero cost.
	Trace *Tracer
}

func (o *Options) device() Device {
	if o.Device != nil {
		return o.Device
	}
	return defaultDevice
}

// defaultDevice is CPU(0); its worker count resolves to GOMAXPROCS at each
// call.
var defaultDevice = CPU(0)

// Compress32 compresses single-precision data.
func Compress32(src []float32, opts Options) ([]byte, error) {
	return compress(src, opts, Device.Compress32)
}

// Decompress32 decodes a single-precision stream into dst (grown as
// needed). Mode and Bound in opts are ignored; they come from the stream.
// Checksummed streams are verified before decoding.
func Decompress32(buf []byte, dst []float32, opts Options) ([]float32, error) {
	return decompress(buf, dst, opts, Device.Decompress32)
}

// Compress64 compresses double-precision data.
func Compress64(src []float64, opts Options) ([]byte, error) {
	return compress(src, opts, Device.Compress64)
}

// Decompress64 decodes a double-precision stream.
func Decompress64(buf []byte, dst []float64, opts Options) ([]float64, error) {
	return decompress(buf, dst, opts, Device.Decompress64)
}

// compress runs one field on the selected device: through its executor for
// a built-in device (traced when opts.Trace is set), through its own Device
// method otherwise.
func compress[T core.Float](src []T, opts Options, viaDevice func(Device, []T, Mode, float64) ([]byte, error)) ([]byte, error) {
	dev := opts.device()
	var comp []byte
	var err error
	if ex, ok := executorFor[T](dev); ok {
		comp, err = core.Compress(ex, src, opts.Mode, opts.Bound, opts.Trace)
	} else {
		comp, err = viaDevice(dev, src, opts.Mode, opts.Bound)
	}
	if err != nil || !opts.Checksum {
		return comp, err
	}
	return core.AppendChecksum(comp)
}

func decompress[T core.Float](buf []byte, dst []T, opts Options, viaDevice func(Device, []byte, []T) ([]T, error)) ([]T, error) {
	buf, err := core.VerifyAndStripChecksum(buf)
	if err != nil {
		return nil, err
	}
	dev := opts.device()
	if ex, ok := executorFor[T](dev); ok {
		return core.Decompress(ex, buf, dst, opts.Trace)
	}
	return viaDevice(dev, buf, dst)
}

// Info describes a compressed stream without decoding it.
type Info struct {
	Mode     Mode
	Bound    float64
	NOARange float64 // input value range (NOA streams)
	Double   bool    // double-precision elements
	Raw      bool    // stored losslessly (quantization disabled)
	Count    int     // number of elements
	Chunks   int
	// Checksummed reports whether the stream carries a CRC-32C trailer.
	Checksummed bool
}

// Stat parses the header of a compressed stream.
func Stat(buf []byte) (Info, error) {
	h, err := core.ParseHeader(buf)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Checksummed: core.HasChecksum(buf),
		Mode:        h.Mode,
		Bound:       h.Bound,
		NOARange:    h.NOARange,
		Double:      h.Prec64,
		Raw:         h.Raw,
		Count:       h.Len(),
		Chunks:      h.NumChunks,
	}, nil
}

// executor is the internal face of every built-in Device: one dispatch
// core per precision (core.Executor), which the single-field and batch
// entry points share and which always carries the Tracer. A custom Device
// does not implement it and runs through its own methods, field by field.
type executor interface {
	executors() (core.Executor[float32], core.Executor[float64])
}

// executorFor returns the built-in executor behind dev for element type T.
func executorFor[T core.Float](dev Device) (core.Executor[T], bool) {
	e, ok := dev.(executor)
	if !ok {
		return nil, false
	}
	ex32, ex64 := e.executors()
	var ex any = ex32
	if core.IsPrec64[T]() {
		ex = ex64
	}
	return ex.(core.Executor[T]), true
}

// builtin is every built-in Device: a name and its executors. The Device
// methods are the untraced single-field calls.
type builtin struct {
	name string
	ex32 core.Executor[float32]
	ex64 core.Executor[float64]
}

func (d *builtin) executors() (core.Executor[float32], core.Executor[float64]) {
	return d.ex32, d.ex64
}

// Name identifies the device in benchmark output.
func (d *builtin) Name() string { return d.name }

// Compress32 implements Device.
func (d *builtin) Compress32(src []float32, mode Mode, bound float64) ([]byte, error) {
	return core.Compress(d.ex32, src, mode, bound, nil)
}

// Decompress32 implements Device.
func (d *builtin) Decompress32(buf []byte, dst []float32) ([]float32, error) {
	return core.Decompress(d.ex32, buf, dst, nil)
}

// Compress64 implements Device.
func (d *builtin) Compress64(src []float64, mode Mode, bound float64) ([]byte, error) {
	return core.Compress(d.ex64, src, mode, bound, nil)
}

// Decompress64 implements Device.
func (d *builtin) Decompress64(buf []byte, dst []float64) ([]float64, error) {
	return core.Decompress(d.ex64, buf, dst, nil)
}

// serial runs everything on the calling goroutine; it is the reference
// implementation.
var serial = &builtin{name: "PFPL-Serial", ex32: core.Serial[float32]{}, ex64: core.Serial[float64]{}}

// Serial returns the single-threaded reference device.
func Serial() Device { return serial }

// CPU returns the parallel CPU device (the paper's OpenMP analog) with the
// given worker count (0 = one worker per logical CPU). It is a CPUPool
// without persistent workers: every call spawns its own.
func CPU(workers int) Device { return newCPUPool("PFPL-CPU", cpucomp.SpawnPool(workers)) }

// CPUPool is a Device backed by a persistent worker pool instead of
// per-call goroutine spawns. It produces bytes identical to every other
// device; the difference is purely operational: a long-lived process
// serving many (de)compression calls — the pfpl serve daemon, batch
// drivers — starts the workers once and lets concurrent calls share them,
// keeping the process's compression goroutine count bounded under load.
// Calls are safe to issue concurrently; when every pooled worker is busy, a
// call runs on its own goroutine alone rather than queueing.
type CPUPool struct {
	builtin
	pool *cpucomp.Pool
}

// NewCPUPool starts a pooled CPU device with the given worker count
// (0 = one worker per logical CPU). Close releases the workers.
func NewCPUPool(workers int) *CPUPool {
	return newCPUPool("PFPL-CPU-Pool", cpucomp.NewPool(workers))
}

func newCPUPool(name string, p *cpucomp.Pool) *CPUPool {
	return &CPUPool{
		builtin: builtin{name: name, ex32: cpucomp.Exec[float32]{Pool: p}, ex64: cpucomp.Exec[float64]{Pool: p}},
		pool:    p,
	}
}

// Workers returns the number of pool workers.
func (d *CPUPool) Workers() int { return d.pool.Size() }

// Close stops the pool's workers; in-flight calls complete normally and
// later calls degrade to single-threaded execution.
func (d *CPUPool) Close() { d.pool.Close() }
