package server

import (
	"encoding/binary"
	"math"
)

// Raw request and response bodies are little-endian IEEE values of either
// precision.

// elemSize returns the encoded size of one T.
func elemSize[T float32 | float64]() int {
	var z T
	if _, ok := any(z).(float64); ok {
		return 8
	}
	return 4
}

// The loops below reslice b to exactly the bytes of v once and then walk
// both slices together, which lets the compiler drop every per-element
// bounds check (go build -gcflags=-d=ssa/check_bce/debug=1 reports none
// inside them).

// getLE decodes len(vals) values from b.
func getLE[T float32 | float64](vals []T, b []byte) {
	switch v := any(vals).(type) {
	case []float32:
		for b = b[:4*len(v)]; len(v) > 0 && len(b) >= 4; v, b = v[1:], b[4:] {
			v[0] = math.Float32frombits(binary.LittleEndian.Uint32(b))
		}
	case []float64:
		for b = b[:8*len(v)]; len(v) > 0 && len(b) >= 8; v, b = v[1:], b[8:] {
			v[0] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
}

// putLE encodes vals into b.
func putLE[T float32 | float64](b []byte, vals []T) {
	switch v := any(vals).(type) {
	case []float32:
		for b = b[:4*len(v)]; len(v) > 0 && len(b) >= 4; v, b = v[1:], b[4:] {
			binary.LittleEndian.PutUint32(b, math.Float32bits(v[0]))
		}
	case []float64:
		for b = b[:8*len(v)]; len(v) > 0 && len(b) >= 8; v, b = v[1:], b[8:] {
			binary.LittleEndian.PutUint64(b, math.Float64bits(v[0]))
		}
	}
}
