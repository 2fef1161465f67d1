package pfpl

import "pfpl/internal/core"

// DecompressRange32 decodes count values starting at element offset from a
// single-precision stream without decompressing the rest: only the 16 kB
// chunks covering the range are decoded. This enables random access into
// large compressed arrays (e.g. extracting one variable slice from an
// in-memory compressed simulation snapshot).
func DecompressRange32(buf []byte, offset, count int) ([]float32, error) {
	buf, err := core.VerifyAndStripChecksum(buf)
	if err != nil {
		return nil, err
	}
	return core.DecompressRange[float32](buf, offset, count)
}

// DecompressRange64 is the double-precision counterpart of
// DecompressRange32.
func DecompressRange64(buf []byte, offset, count int) ([]float64, error) {
	buf, err := core.VerifyAndStripChecksum(buf)
	if err != nil {
		return nil, err
	}
	return core.DecompressRange[float64](buf, offset, count)
}
