package core

import (
	"math"

	"pfpl/internal/portmath"
)

// The chunk quantizers produce exactly the words of EncodeValue32/64 and
// the values of DecodeValue32/64, but choose the mode's loop once per chunk
// and run REL in blocks of quantBlock values (paper §III.B–C):
//
//  1. the log2 of every magnitude, four independent lanes at a time
//     (portmath.Log2x4, bit-identical to Log2);
//  2. per value, the bin and its range check;
//  3. exp2(bin*logBin) for the bins a memo does not hold, four at a time
//     (portmath.Exp2x4);
//  4. per value, the verify against that reconstruction.
//
// The memo is exact: exp2(float64(bin)*logBin) depends only on the bin and
// the Params, and the memo is reset at each chunk. It replaces only the
// recomputation of exp2; every value is still checked against the bound.
// The ablation switches SkipVerify and UseLibm, which only the ratio
// studies set, keep the per-value path.
const (
	quantBlock = 256
	memoSlots  = 512
	memoEmpty  = math.MinInt64 // no bin: |bin| <= f64RelBin < 2^50
)

// QuantScratch is the working storage of the chunk quantizers (11.5 KB): one
// block of log2 results, a direct-mapped memo of exp2(bin*logBin) keyed by
// the full bin, and the values and exp2 evaluations the block has left for
// after its fill.
type QuantScratch struct {
	lg [quantBlock]float64

	keys [memoSlots]int64
	vals [memoSlots]float64
	// gen stamps the memo slots claimed by block blk: their vals are not
	// evaluated yet, and no other bin may take them before the block's
	// fill. A stale stamp that wrapped around to blk only routes a value
	// through the slower path.
	gen [memoSlots]uint8
	blk uint8

	// pend lists the values waiting for the fill. miss lists the
	// evaluations the fill owes: a memo slot, or memoSlots+i for value i
	// whose bin found its slot claimed by another bin of the block, with
	// its exp2 argument parked in lg[i].
	pend  [quantBlock]uint16
	miss  [quantBlock]uint16
	npend int
	nmiss int
}

// resetMemo empties the memo, which the chunk quantizers do at each chunk.
//
//pfpl:hotpath
func (q *QuantScratch) resetMemo() {
	for i := range q.keys {
		q.keys[i] = memoEmpty
	}
	q.gen = [memoSlots]uint8{}
	q.blk = 1
}

// cached returns exp2(bin*logBin) if the memo holds it evaluated.
func (q *QuantScratch) cached(bin int64) (e float64, ok bool) {
	slot := bin & (memoSlots - 1)
	return q.vals[slot], q.keys[slot] == bin && q.gen[slot] != q.blk
}

// want queues value i of the block, whose bin the memo does not hold
// evaluated, for after the fill, and arranges for the fill to evaluate its
// exp2 unless another value of the block already did.
//
//pfpl:hotpath
func (q *QuantScratch) want(i int, bin int64, logBin float64) {
	q.pend[q.npend] = uint16(i)
	q.npend++
	slot := bin & (memoSlots - 1)
	switch {
	case q.keys[slot] == bin:
		return
	case q.gen[slot] == q.blk:
		q.lg[i] = float64(float64(bin) * logBin)
		q.miss[q.nmiss] = uint16(memoSlots + i)
	default:
		q.keys[slot] = bin
		q.gen[slot] = q.blk
		q.miss[q.nmiss] = uint16(slot)
	}
	q.nmiss++
}

// fill evaluates every exp2 that want recorded, four at a time, and returns
// the values waiting for them.
//
//pfpl:hotpath
func (q *QuantScratch) fill(p *Params) (pend []uint16) {
	var x [4]float64
	for i := 0; i < q.nmiss; i += 4 {
		for l := range x {
			if m := q.miss[min(i+l, q.nmiss-1)]; m < memoSlots {
				x[l] = float64(float64(q.keys[m]) * p.logBin)
			} else {
				x[l] = q.lg[m-memoSlots]
			}
		}
		portmath.Exp2x4(&x)
		for l := range x {
			if m := q.miss[min(i+l, q.nmiss-1)]; m < memoSlots {
				q.vals[m] = x[l]
			} else {
				q.lg[m-memoSlots] = x[l]
			}
		}
	}
	pend = q.pend[:q.npend]
	q.npend, q.nmiss = 0, 0
	q.blk++
	return pend
}

// exp2 returns exp2(bin*logBin) for value i of pend once fill has run.
func (q *QuantScratch) exp2(i uint16, bin int64) float64 {
	if slot := bin & (memoSlots - 1); q.keys[slot] == bin {
		return q.vals[slot]
	}
	return q.lg[i]
}

// QuantizeChunk32 sets dst[i] = p.EncodeValue32(src[i]) for every value of
// src; dst must be at least as long.
//
//pfpl:hotpath
func (p *Params) QuantizeChunk32(dst []uint32, src []float32, q *QuantScratch) {
	dst = dst[:len(src)]
	switch {
	case p.Raw:
		for i, v := range src {
			dst[i] = math.Float32bits(v)
		}
	case p.Mode != REL:
		for i, v := range src {
			dst[i] = p.encodeAbs32(v)
		}
	case p.SkipVerify || p.UseLibm:
		// The ablation switches keep the per-value definition.
		for i, v := range src {
			dst[i] = p.encodeRel32(v)
		}
	default:
		q.resetMemo()
		for lo := 0; lo < len(src); lo += quantBlock {
			hi := min(lo+quantBlock, len(src))
			p.quantizeRelBlock32(dst[lo:hi], src[lo:hi], q)
		}
	}
}

// quantizeRelBlock32 quantizes up to quantBlock values in the passes the
// file comment describes. Between the passes dst holds, for each value of
// the fill's pending list, its bin.
//
//pfpl:hotpath
func (p *Params) quantizeRelBlock32(dst []uint32, src []float32, q *QuantScratch) {
	lg := q.lg[:(len(src)+3)&^3]
	for i, v := range src {
		lg[i] = math.Abs(float64(v))
	}
	for i := len(src); i < len(lg); i++ {
		lg[i] = 1
	}
	for i := 0; i < len(lg); i += 4 {
		portmath.Log2x4((*[4]float64)(lg[i:]))
	}
	for i, v := range src {
		u := math.Float32bits(v)
		if w, exact := relExact32(u); exact {
			dst[i] = w
			continue
		}
		bin, ok := relBin(float64(lg[i]*p.invLogBin), f32RelBin)
		switch {
		case !ok:
			dst[i] = u ^ f32RelXor
		default:
			if e, ok := q.cached(bin); ok {
				dst[i] = p.relVerified32(u, bin, e)
				continue
			}
			//pfpl:ignore intwidth |bin| <= f32RelBin < 2^20 round-trips through int32
			dst[i] = uint32(int32(bin))
			q.want(i, bin, p.logBin)
		}
	}
	for _, i := range q.fill(p) {
		bin := int64(int32(dst[i]))
		dst[i] = p.relVerified32(math.Float32bits(src[i]), bin, q.exp2(i, bin))
	}
}

// DequantizeChunk32 sets dst[i] = p.DecodeValue32(src[i]) for every word of
// src; dst must be at least as long.
//
//pfpl:hotpath
func (p *Params) DequantizeChunk32(dst []float32, src []uint32, q *QuantScratch) {
	dst = dst[:len(src)]
	switch {
	case p.Raw:
		for i, w := range src {
			dst[i] = math.Float32frombits(w)
		}
	case p.Mode != REL:
		for i, w := range src {
			dst[i] = p.decodeAbs32(w)
		}
	case p.UseLibm:
		for i, w := range src {
			dst[i] = p.decodeRel32(w)
		}
	default:
		q.resetMemo()
		for lo := 0; lo < len(src); lo += quantBlock {
			hi := min(lo+quantBlock, len(src))
			p.dequantizeRelBlock32(dst[lo:hi], src[lo:hi], q)
		}
	}
}

// dequantizeRelBlock32 reconstructs up to quantBlock values: at once where
// the memo holds a bin's exp2, after the block's fill otherwise.
//
//pfpl:hotpath
func (p *Params) dequantizeRelBlock32(dst []float32, src []uint32, q *QuantScratch) {
	for i, w := range src {
		pl := relBinPayload32(w)
		if pl == 0 {
			dst[i] = relExactValue32(w)
			continue
		}
		bin, neg := relUnpayload(pl)
		if e, ok := q.cached(bin); ok {
			dst[i] = relValue32(e, neg)
			continue
		}
		q.want(i, bin, p.logBin)
	}
	for _, i := range q.fill(p) {
		bin, neg := relUnpayload(relBinPayload32(src[i]))
		dst[i] = relValue32(q.exp2(i, bin), neg)
	}
}

// QuantizeChunk64 sets dst[i] = p.EncodeValue64(src[i]) for every value of
// src; dst must be at least as long.
//
//pfpl:hotpath
func (p *Params) QuantizeChunk64(dst []uint64, src []float64, q *QuantScratch) {
	dst = dst[:len(src)]
	switch {
	case p.Raw:
		for i, v := range src {
			dst[i] = math.Float64bits(v)
		}
	case p.Mode != REL:
		for i, v := range src {
			dst[i] = p.encodeAbs64(v)
		}
	case p.SkipVerify || p.UseLibm:
		// The ablation switches keep the per-value definition.
		for i, v := range src {
			dst[i] = p.encodeRel64(v)
		}
	default:
		q.resetMemo()
		for lo := 0; lo < len(src); lo += quantBlock {
			hi := min(lo+quantBlock, len(src))
			p.quantizeRelBlock64(dst[lo:hi], src[lo:hi], q)
		}
	}
}

// quantizeRelBlock64 is the double-precision counterpart of
// quantizeRelBlock32.
//
//pfpl:hotpath
func (p *Params) quantizeRelBlock64(dst []uint64, src []float64, q *QuantScratch) {
	lg := q.lg[:(len(src)+3)&^3]
	for i, v := range src {
		lg[i] = math.Abs(v)
	}
	for i := len(src); i < len(lg); i++ {
		lg[i] = 1
	}
	for i := 0; i < len(lg); i += 4 {
		portmath.Log2x4((*[4]float64)(lg[i:]))
	}
	for i, v := range src {
		u := math.Float64bits(v)
		if w, exact := relExact64(u); exact {
			dst[i] = w
			continue
		}
		bin, ok := relBin(float64(lg[i]*p.invLogBin), f64RelBin)
		switch {
		case !ok:
			dst[i] = u ^ f64RelXor
		default:
			if e, ok := q.cached(bin); ok {
				dst[i] = p.relVerified64(u, bin, e)
				continue
			}
			dst[i] = uint64(bin)
			q.want(i, bin, p.logBin)
		}
	}
	for _, i := range q.fill(p) {
		//pfpl:ignore intwidth dst[i] holds the int64 bin stored as uint64 above; the round trip is exact
		bin := int64(dst[i])
		dst[i] = p.relVerified64(math.Float64bits(src[i]), bin, q.exp2(i, bin))
	}
}

// DequantizeChunk64 sets dst[i] = p.DecodeValue64(src[i]) for every word of
// src; dst must be at least as long.
//
//pfpl:hotpath
func (p *Params) DequantizeChunk64(dst []float64, src []uint64, q *QuantScratch) {
	dst = dst[:len(src)]
	switch {
	case p.Raw:
		for i, w := range src {
			dst[i] = math.Float64frombits(w)
		}
	case p.Mode != REL:
		for i, w := range src {
			dst[i] = p.decodeAbs64(w)
		}
	case p.UseLibm:
		for i, w := range src {
			dst[i] = p.decodeRel64(w)
		}
	default:
		q.resetMemo()
		for lo := 0; lo < len(src); lo += quantBlock {
			hi := min(lo+quantBlock, len(src))
			p.dequantizeRelBlock64(dst[lo:hi], src[lo:hi], q)
		}
	}
}

// dequantizeRelBlock64 is the double-precision counterpart of
// dequantizeRelBlock32.
//
//pfpl:hotpath
func (p *Params) dequantizeRelBlock64(dst []float64, src []uint64, q *QuantScratch) {
	for i, w := range src {
		pl := relBinPayload64(w)
		if pl == 0 {
			dst[i] = relExactValue64(w)
			continue
		}
		bin, neg := relUnpayload(pl)
		if e, ok := q.cached(bin); ok {
			dst[i] = relValue64(e, neg)
			continue
		}
		q.want(i, bin, p.logBin)
	}
	for _, i := range q.fill(p) {
		bin, neg := relUnpayload(relBinPayload64(src[i]))
		dst[i] = relValue64(q.exp2(i, bin), neg)
	}
}
