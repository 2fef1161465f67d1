package core

import (
	"math"

	"pfpl/internal/bits"
	"pfpl/internal/portmath"
)

// The chunk quantizers produce exactly the words of EncodeValue and the
// values of DecodeValue, but choose the mode's loop once per chunk
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
	memoEmpty  = math.MinInt64 // no bin: |bin| <= relBin < 2^50
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

// QuantizeChunk sets dst[i] = EncodeValue(p, src[i]) for every value of
// src; dst must be at least as long.
//
//pfpl:hotpath
func QuantizeChunk[T Float, W bits.Word](p *Params, dst []W, src []T, q *QuantScratch) {
	dst = dst[:len(src)]
	switch {
	case p.Raw:
		for i, v := range src {
			dst[i] = wordOf[T, W](v)
		}
	case p.Mode != REL:
		for i, v := range src {
			dst[i] = encodeAbs[T, W](p, v)
		}
	case p.SkipVerify || p.UseLibm:
		// The ablation switches keep the per-value definition.
		for i, v := range src {
			dst[i] = encodeRel[T, W](p, v)
		}
	default:
		q.resetMemo()
		for lo := 0; lo < len(src); lo += quantBlock {
			hi := min(lo+quantBlock, len(src))
			quantizeRelBlock(p, dst[lo:hi], src[lo:hi], q)
		}
	}
}

// quantizeRelBlock quantizes up to quantBlock values in the passes the
// file comment describes. Between the passes dst holds, for each value of
// the fill's pending list, its bin; |bin| <= relBin < 2^49 round-trips
// through W and signed.
//
//pfpl:hotpath
func quantizeRelBlock[T Float, W bits.Word](p *Params, dst []W, src []T, q *QuantScratch) {
	l := layoutOf[W]()
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
		u := wordOf[T, W](v)
		if w, exact := l.relExact(u); exact {
			dst[i] = w
			continue
		}
		bin, ok := relBin(float64(lg[i]*p.invLogBin), l.relBin())
		switch {
		case !ok:
			dst[i] = u ^ l.relXor()
		default:
			if e, ok := q.cached(bin); ok {
				dst[i] = relVerified[T](p, u, bin, e)
				continue
			}
			dst[i] = W(bin)
			q.want(i, bin, p.logBin)
		}
	}
	for _, i := range q.fill(p) {
		bin := signed(dst[i])
		dst[i] = relVerified[T](p, wordOf[T, W](src[i]), bin, q.exp2(i, bin))
	}
}

// signed returns w as a two's-complement integer of its width.
func signed[W bits.Word](w W) int64 {
	if bits.Width[W]() == 64 {
		return int64(w)
	}
	return int64(int32(w))
}

// DequantizeChunk sets dst[i] = DecodeValue(p, src[i]) for every word of
// src; dst must be at least as long.
//
//pfpl:hotpath
func DequantizeChunk[T Float, W bits.Word](p *Params, dst []T, src []W, q *QuantScratch) {
	dst = dst[:len(src)]
	switch {
	case p.Raw:
		for i, w := range src {
			dst[i] = valueOf[T](w)
		}
	case p.Mode != REL:
		l := layoutOf[W]()
		for i, w := range src {
			dst[i] = decodeAbs[T](p, l, w)
		}
	case p.UseLibm:
		for i, w := range src {
			dst[i] = decodeRel[T](p, w)
		}
	default:
		q.resetMemo()
		for lo := 0; lo < len(src); lo += quantBlock {
			hi := min(lo+quantBlock, len(src))
			dequantizeRelBlock(p, dst[lo:hi], src[lo:hi], q)
		}
	}
}

// dequantizeRelBlock reconstructs up to quantBlock values: at once where
// the memo holds a bin's exp2, after the block's fill otherwise.
//
//pfpl:hotpath
func dequantizeRelBlock[T Float, W bits.Word](p *Params, dst []T, src []W, q *QuantScratch) {
	l := layoutOf[W]()
	for i, w := range src {
		pl := l.relBinPayload(w)
		if pl == 0 {
			dst[i] = relExactValue[T](l, w)
			continue
		}
		bin, neg := relUnpayload(pl)
		if e, ok := q.cached(bin); ok {
			dst[i] = relValue[T](e, neg)
			continue
		}
		q.want(i, bin, p.logBin)
	}
	for _, i := range q.fill(p) {
		bin, neg := relUnpayload(l.relBinPayload(src[i]))
		dst[i] = relValue[T](q.exp2(i, bin), neg)
	}
}
