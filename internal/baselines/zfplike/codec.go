package zfplike

import (
	"encoding/binary"
	"math"

	"pfpl/internal/bits"
	"pfpl/internal/core"
)

// Per-block flags.
const (
	blkCoded = 0
	blkZero  = 1 // all-zero block, no payload
	blkRaw   = 2 // non-finite values present: raw IEEE bits follow
)

// gatherBlock collects one 4^d block at block coordinates bc, replicating
// edge values for partial blocks (ZFP's padding).
func gatherBlock[T number](src []T, dims []int, d int, bc []int, blk []float64) {
	n4 := func(axis int) int { return (dims[axis] + 3) / 4 }
	_ = n4
	switch d {
	case 1:
		n := dims[0]
		base := bc[0] * 4
		for i := 0; i < 4; i++ {
			idx := base + i
			if idx >= n {
				idx = n - 1
			}
			blk[i] = float64(src[idx])
		}
	case 2:
		ny, nx := dims[0], dims[1]
		for y := 0; y < 4; y++ {
			yy := bc[0]*4 + y
			if yy >= ny {
				yy = ny - 1
			}
			for x := 0; x < 4; x++ {
				xx := bc[1]*4 + x
				if xx >= nx {
					xx = nx - 1
				}
				blk[y*4+x] = float64(src[yy*nx+xx])
			}
		}
	default:
		nz, ny, nx := dims[0], dims[1], dims[2]
		for z := 0; z < 4; z++ {
			zz := bc[0]*4 + z
			if zz >= nz {
				zz = nz - 1
			}
			for y := 0; y < 4; y++ {
				yy := bc[1]*4 + y
				if yy >= ny {
					yy = ny - 1
				}
				for x := 0; x < 4; x++ {
					xx := bc[2]*4 + x
					if xx >= nx {
						xx = nx - 1
					}
					blk[z*16+y*4+x] = float64(src[(zz*ny+yy)*nx+xx])
				}
			}
		}
	}
}

// scatterBlock writes decoded block values back, skipping padded positions.
func scatterBlock[T number](dst []T, dims []int, d int, bc []int, blk []float64) {
	switch d {
	case 1:
		n := dims[0]
		base := bc[0] * 4
		for i := 0; i < 4; i++ {
			if idx := base + i; idx < n {
				dst[idx] = T(blk[i])
			}
		}
	case 2:
		ny, nx := dims[0], dims[1]
		for y := 0; y < 4; y++ {
			yy := bc[0]*4 + y
			if yy >= ny {
				continue
			}
			for x := 0; x < 4; x++ {
				xx := bc[1]*4 + x
				if xx >= nx {
					continue
				}
				dst[yy*nx+xx] = T(blk[y*4+x])
			}
		}
	default:
		nz, ny, nx := dims[0], dims[1], dims[2]
		for z := 0; z < 4; z++ {
			zz := bc[0]*4 + z
			if zz >= nz {
				continue
			}
			for y := 0; y < 4; y++ {
				yy := bc[1]*4 + y
				if yy >= ny {
					continue
				}
				for x := 0; x < 4; x++ {
					xx := bc[2]*4 + x
					if xx >= nx {
						continue
					}
					dst[(zz*ny+yy)*nx+xx] = T(blk[z*16+y*4+x])
				}
			}
		}
	}
}

// Compress compresses src with the given mode (ABS or REL) and bound.
func Compress[T number](src []T, dims []int, mode core.Mode, bound float64) ([]byte, error) {
	if mode == core.NOA {
		return nil, ErrUnsupported
	}
	if !(bound > 0) || math.IsInf(bound, 0) {
		return nil, core.ErrBadBound
	}
	if len(dims) == 0 {
		dims = []int{len(src)}
	}
	if len(dims) > 3 {
		// Collapse extra leading dimensions.
		flat := 1
		for _, d := range dims[:len(dims)-2] {
			flat *= d
		}
		dims = []int{flat, dims[len(dims)-2], dims[len(dims)-1]}
	}
	d, bsize := blockDim(len(dims))
	qb := qbitsFor[T]()
	totalPlanes := qb + 6 // guard bits for transform growth

	var one T
	prec := byte(0)
	if _, is64 := any(one).(float64); is64 {
		prec = 1
	}
	out := append([]byte(nil), zfpMagic...)
	out = append(out, prec, byte(mode), byte(len(dims)))
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(bound))
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(len(src)))
	out = append(out, b8[:]...)
	for _, dm := range dims {
		if dm < 0 || int64(dm) > math.MaxUint32 {
			panic("zfplike: dimension outside the uint32 header range")
		}
		binary.LittleEndian.PutUint32(b8[:4], uint32(dm))
		out = append(out, b8[:4]...)
	}

	w := bits.NewWriter(len(src))
	blk := make([]float64, bsize)
	iblk := make([]int64, bsize)
	nb := blockCounts(dims, d)
	forEachBlock(nb, func(bc []int) {
		gatherBlock(src, dims, d, bc, blk)
		encodeBlock(w, blk, iblk, mode, bound, d, qb, totalPlanes)
	})
	return append(out, w.Bytes()...), nil
}

func blockCounts(dims []int, d int) []int {
	nb := make([]int, d)
	for i := 0; i < d; i++ {
		nb[i] = (dims[i] + 3) / 4
	}
	return nb
}

func forEachBlock(nb []int, fn func(bc []int)) {
	bc := make([]int, len(nb))
	var rec func(axis int)
	rec = func(axis int) {
		if axis == len(nb) {
			fn(bc)
			return
		}
		for i := 0; i < nb[axis]; i++ {
			bc[axis] = i
			rec(axis + 1)
		}
	}
	rec(0)
}

func encodeBlock(w *bits.Writer, blk []float64, iblk []int64, mode core.Mode, bound float64, d, qb, totalPlanes int) {
	bsize := len(blk)
	allZero := true
	finite := true
	emax := -16384
	for _, v := range blk {
		if v != 0 {
			allZero = false
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
		if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			if e := exponent(v); e > emax {
				emax = e
			}
		}
	}
	switch {
	case !finite:
		w.WriteBits(blkRaw, 2)
		for _, v := range blk {
			w.WriteUint64(math.Float64bits(v))
		}
		return
	case allZero:
		w.WriteBits(blkZero, 2)
		return
	}
	w.WriteBits(blkCoded, 2)
	w.WriteBits(uint64(uint16(int16(emax))), 16)
	// Block floating point: scale into qb-bit fixed point.
	scale := math.Ldexp(1, qb-1-emax)
	for i, v := range blk {
		iblk[i] = int64(v * scale)
	}
	transformForward(iblk, d)
	keep := planesToKeep(mode, bound, emax, qb, d, totalPlanes)
	w.WriteBits(uint64(keep), 8)
	// Negabinary, then embedded plane coding MSB-first: refinement bits for
	// already-significant coefficients plus a binary group test locating
	// newly significant ones — the mechanism that lets smooth blocks, whose
	// energy concentrates in low-order coefficients, code high planes in a
	// handful of bits.
	nb := make([]uint64, bsize)
	for i, x := range iblk {
		nb[i] = bits.ToNegabinary(uint64(x))
	}
	order := coeffOrder(d)
	sig := make([]bool, bsize)
	insig := make([]int, 0, bsize)
	for p := totalPlanes - 1; p >= totalPlanes-keep; p-- {
		// Refinement pass.
		for _, c := range order {
			if sig[c] {
				w.WriteBit(uint(nb[c] >> uint(p) & 1))
			}
		}
		// Significance pass: binary group testing over the insignificant
		// coefficients in coding order.
		insig = insig[:0]
		for _, c := range order {
			if !sig[c] {
				insig = append(insig, c)
			}
		}
		encodeSigGroup(w, nb, sig, insig, uint(p))
	}
}

// coeffOrder returns the coefficient coding order: ascending total degree
// (sum of per-axis frequencies), the order energy decays in after the
// decorrelating transform.
func coeffOrder(d int) []int {
	switch d {
	case 1:
		return []int{0, 1, 2, 3}
	case 2:
		idx := make([]int, 0, 16)
		for deg := 0; deg <= 6; deg++ {
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					if x+y == deg {
						idx = append(idx, y*4+x)
					}
				}
			}
		}
		return idx
	default:
		idx := make([]int, 0, 64)
		for deg := 0; deg <= 9; deg++ {
			for z := 0; z < 4; z++ {
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						if x+y+z == deg {
							idx = append(idx, z*16+y*4+x)
						}
					}
				}
			}
		}
		return idx
	}
}

// decodeSigGroup mirrors encodeSigGroup.
func decodeSigGroup(r *bits.Reader, nb []uint64, sig []bool, insig []int, p uint) error {
	var rec func(lo, hi int) error
	rec = func(lo, hi int) error {
		if lo >= hi {
			return nil
		}
		any, err := r.ReadBit()
		if err != nil {
			return ErrCorrupt
		}
		if any == 0 {
			return nil
		}
		if hi-lo == 1 {
			c := insig[lo]
			sig[c] = true
			nb[c] |= 1 << p
			return nil
		}
		mid := (lo + hi) / 2
		if err := rec(lo, mid); err != nil {
			return err
		}
		return rec(mid, hi)
	}
	return rec(0, len(insig))
}

// encodeSigGroup emits one bit telling whether any coefficient in
// insig[lo:hi] has a set bit at plane p, recursing into halves until single
// coefficients are resolved.
func encodeSigGroup(w *bits.Writer, nb []uint64, sig []bool, insig []int, p uint) {
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if lo >= hi {
			return
		}
		var any uint64
		for _, c := range insig[lo:hi] {
			any |= nb[c] >> p & 1
		}
		w.WriteBit(uint(any))
		if any == 0 {
			return
		}
		if hi-lo == 1 {
			sig[insig[lo]] = true
			return
		}
		mid := (lo + hi) / 2
		rec(lo, mid)
		rec(mid, hi)
	}
	rec(0, len(insig))
}

func decodeBlock(r *bits.Reader, blk []float64, iblk []int64, d, qb, totalPlanes int) error {
	bsize := len(blk)
	flag, err := r.ReadBits(2)
	if err != nil {
		return ErrCorrupt
	}
	switch flag {
	case blkRaw:
		for i := range blk {
			u, err := r.ReadUint64()
			if err != nil {
				return ErrCorrupt
			}
			blk[i] = math.Float64frombits(u)
		}
		return nil
	case blkZero:
		for i := range blk {
			blk[i] = 0
		}
		return nil
	case blkCoded:
	default:
		return ErrCorrupt
	}
	e16, err := r.ReadBits(16)
	if err != nil {
		return ErrCorrupt
	}
	emax := int(int16(uint16(e16)))
	keepU, err := r.ReadBits(8)
	if err != nil {
		return ErrCorrupt
	}
	keep := int(keepU & 0xFF)
	if keep > totalPlanes {
		return ErrCorrupt
	}
	nb := make([]uint64, bsize)
	order := coeffOrder(d)
	sig := make([]bool, bsize)
	insig := make([]int, 0, bsize)
	for p := totalPlanes - 1; p >= totalPlanes-keep; p-- {
		for _, c := range order {
			if sig[c] {
				b, err := r.ReadBit()
				if err != nil {
					return ErrCorrupt
				}
				nb[c] |= uint64(b) << uint(p)
			}
		}
		insig = insig[:0]
		for _, c := range order {
			if !sig[c] {
				insig = append(insig, c)
			}
		}
		if err := decodeSigGroup(r, nb, sig, insig, uint(p)); err != nil {
			return err
		}
	}
	for i := range iblk {
		//pfpl:ignore intwidth deliberate two's-complement reinterpretation of the negabinary decode
		iblk[i] = int64(bits.FromNegabinary(nb[i]))
	}
	transformInverse(iblk, d)
	scale := math.Ldexp(1, emax+1-qb)
	for i := range blk {
		blk[i] = float64(iblk[i]) * scale
	}
	return nil
}

// Decompress decodes a stream produced by Compress.
func Decompress[T number](buf []byte) ([]T, error) {
	if len(buf) < 7+16 {
		return nil, ErrCorrupt
	}
	if string(buf[:4]) != zfpMagic {
		return nil, ErrCorrupt
	}
	prec := buf[4]
	nd := int(buf[6])
	var one T
	_, is64 := any(one).(float64)
	if (prec == 1) != is64 || nd == 0 || nd > 3 {
		return nil, ErrCorrupt
	}
	count64 := binary.LittleEndian.Uint64(buf[15:])
	if count64 > maxDecodeElems {
		return nil, ErrCorrupt
	}
	count := int(count64)
	if len(buf) < 23+4*nd {
		return nil, ErrCorrupt
	}
	dims := make([]int, nd)
	total := 1
	for i := 0; i < nd; i++ {
		dims[i] = int(binary.LittleEndian.Uint32(buf[23+4*i:]))
		if dims[i] <= 0 {
			return nil, ErrCorrupt
		}
		total *= dims[i]
	}
	if total != count {
		return nil, ErrCorrupt
	}
	body := buf[23+4*nd:]

	d, bsize := blockDim(nd)
	qb := qbitsFor[T]()
	totalPlanes := qb + 6
	out := make([]T, count)
	r := bits.NewReader(body)
	blk := make([]float64, bsize)
	iblk := make([]int64, bsize)
	var derr error
	forEachBlock(blockCounts(dims, d), func(bc []int) {
		if derr != nil {
			return
		}
		if err := decodeBlock(r, blk, iblk, d, qb, totalPlanes); err != nil {
			derr = err
			return
		}
		scatterBlock(out, dims, d, bc, blk)
	})
	if derr != nil {
		return nil, derr
	}
	return out, nil
}
