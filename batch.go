package pfpl

import (
	"fmt"

	"pfpl/internal/core"
)

// Batched workloads: DAQ-style deployments compress thousands of small
// fields per second, where per-field dispatch overhead dominates the actual
// encoding work. CompressBatch packs all fields into one batch container
// processed by a single dispatch on the selected device; each field's
// payload inside the container is a complete standalone stream, bit-identical
// to the single-field compressor's output, so the batch container is
// bit-identical across devices and a single field is readable (OpenBatch)
// without touching its neighbors.

// CompressBatch32 compresses many single-precision fields into one batch
// container. All fields share the mode and bound in opts; on the built-in
// devices every field's chunks flow through one dispatch instead of one per
// field. With opts.Checksum a single CRC-32C trailer covers the whole
// container.
func CompressBatch32(fields [][]float32, opts Options) ([]byte, error) {
	return compressBatch(fields, opts, Device.Compress32)
}

// CompressBatch64 is the double-precision counterpart of CompressBatch32.
func CompressBatch64(fields [][]float64, opts Options) ([]byte, error) {
	return compressBatch(fields, opts, Device.Compress64)
}

// DecompressBatch32 decodes every field of a single-precision batch
// container. Checksummed containers are verified first. Mode and Bound in
// opts are ignored; they come from the per-field index.
func DecompressBatch32(buf []byte, opts Options) ([][]float32, error) {
	return decompressBatch(buf, opts, Device.Decompress32)
}

// DecompressBatch64 is the double-precision counterpart of DecompressBatch32.
func DecompressBatch64(buf []byte, opts Options) ([][]float64, error) {
	return decompressBatch(buf, opts, Device.Decompress64)
}

// compressBatch runs a batch on the selected device. A custom Device
// compresses each field alone, and the same core packing assembles the
// container, so the bytes still match the built-in devices'.
func compressBatch[T core.Float](fields [][]T, opts Options, viaDevice func(Device, []T, Mode, float64) ([]byte, error)) ([]byte, error) {
	dev := opts.device()
	var comp []byte
	var err error
	if ex, ok := executorFor[T](dev); ok {
		comp, err = core.CompressBatch(ex, fields, opts.Mode, opts.Bound, opts.Trace)
	} else {
		comps := make([][]byte, len(fields))
		for i, f := range fields {
			if comps[i], err = viaDevice(dev, f, opts.Mode, opts.Bound); err != nil {
				return nil, fmt.Errorf("batch field %d: %w", i, err)
			}
		}
		comp, err = core.PackBatch(comps, core.IsPrec64[T]())
	}
	if err != nil || !opts.Checksum {
		return comp, err
	}
	return core.AppendBatchChecksum(comp)
}

func decompressBatch[T core.Float](buf []byte, opts Options, viaDevice func(Device, []byte, []T) ([]T, error)) ([][]T, error) {
	buf, err := core.VerifyAndStripChecksum(buf)
	if err != nil {
		return nil, err
	}
	dev := opts.device()
	if ex, ok := executorFor[T](dev); ok {
		return core.DecompressBatch(ex, buf, opts.Trace)
	}
	comps, err := core.BatchFields(buf, core.IsPrec64[T]())
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(comps))
	for i, fc := range comps {
		if out[i], err = viaDevice(dev, fc, nil); err != nil {
			return nil, fmt.Errorf("batch field %d: %w", i, err)
		}
	}
	return out, nil
}

// IsBatch reports whether buf is a batch container (as opposed to a
// single-field stream).
func IsBatch(buf []byte) bool { return core.IsBatch(buf) }

// Batch is a parsed batch container open for random access: field metadata
// comes from the validated index, and any single field can be sliced out and
// decoded without touching its neighbors. The Batch keeps a reference to the
// container bytes; it performs no decoding until a field is requested.
type Batch struct {
	idx core.BatchIndex
}

// OpenBatch parses and validates a batch container's header and index table
// for random access. Checksummed containers are verified (whole-container
// CRC) before the index is trusted.
func OpenBatch(buf []byte) (*Batch, error) {
	buf, err := core.VerifyAndStripChecksum(buf)
	if err != nil {
		return nil, err
	}
	idx, err := core.ParseBatch(buf)
	if err != nil {
		return nil, err
	}
	return &Batch{idx: idx}, nil
}

// Count returns the number of fields in the batch.
func (b *Batch) Count() int { return len(b.idx.Entries) }

// Double reports whether the batch holds double-precision fields.
func (b *Batch) Double() bool { return b.idx.Prec64 }

// Info describes field i from the batch index without decoding it.
func (b *Batch) Info(i int) Info {
	e := &b.idx.Entries[i]
	//pfpl:ignore intwidth Values passed the MaxElems choke point in BatchIndexTable
	count := int(e.Values)
	w := core.ChunkWords32
	if b.idx.Prec64 {
		w = core.ChunkWords64
	}
	return Info{
		Mode:   e.Mode,
		Bound:  e.Bound,
		Double: b.idx.Prec64,
		Raw:    e.Raw,
		Count:  count,
		Chunks: core.NumChunksFor(count, w),
	}
}

// Field returns field i's standalone container, cross-checking the field's
// own header against the index entry so neither copy of the metadata is
// trusted alone. The returned slice aliases the batch buffer; it decodes
// with Decompress32/64 or any Device.
func (b *Batch) Field(i int) ([]byte, error) { return b.idx.Field(i) }

// Field32 decodes single-precision field i into dst (grown as needed)
// without decoding any other field.
func (b *Batch) Field32(i int, dst []float32, opts Options) ([]float32, error) {
	if b.idx.Prec64 {
		return nil, ErrCorrupt
	}
	fc, err := b.Field(i)
	if err != nil {
		return nil, err
	}
	return Decompress32(fc, dst, opts)
}

// Field64 decodes double-precision field i into dst (grown as needed)
// without decoding any other field.
func (b *Batch) Field64(i int, dst []float64, opts Options) ([]float64, error) {
	if !b.idx.Prec64 {
		return nil, ErrCorrupt
	}
	fc, err := b.Field(i)
	if err != nil {
		return nil, err
	}
	return Decompress64(fc, dst, opts)
}
