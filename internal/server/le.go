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

// getLE decodes len(vals) values from b.
func getLE[T float32 | float64](vals []T, b []byte) {
	switch v := any(vals).(type) {
	case []float32:
		for i := range v {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		}
	case []float64:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
}

// putLE encodes vals into b.
func putLE[T float32 | float64](b []byte, vals []T) {
	switch v := any(vals).(type) {
	case []float32:
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(x))
		}
	case []float64:
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
		}
	}
}
