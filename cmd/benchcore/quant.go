package main

import (
	"fmt"
	"math"
	"time"

	"pfpl/internal/core"
	"pfpl/internal/sdrbench"
)

// Quantizer rows: the chunk kernels (Params.QuantizeChunk32/64,
// DequantizeChunk32/64, impl "chunk") against the per-value
// EncodeValue*/DecodeValue* loop they replaced (impl "per_value"), per mode
// and precision. The dataset is the first chunk of every ScaleSmall SDRBench
// file of the precision, quantized chunk by chunk as the chunk codecs do:
// REL 1e-3, and ABS 1e-3 times each chunk's value range — the bounds of the
// field-rel and field-abs benchmark workloads. REL cost depends on how often
// a chunk repeats a bin, which synthetic sine data overstates.

// quantChunk is one sample chunk with the Params of each mode.
type quantChunk[F core.Float] struct {
	src      []F
	abs, rel core.Params
}

// quantPrec binds one precision's quantizer entry points.
type quantPrec[F core.Float, W uint32 | uint64] struct {
	bits       int
	chunk      func(p *core.Params, w []W, src []F, q *core.QuantScratch)
	perValue   func(p *core.Params, w []W, src []F)
	dechunk    func(p *core.Params, dst []F, w []W, q *core.QuantScratch)
	dePerValue func(p *core.Params, dst []F, w []W)
}

var quant32 = quantPrec[float32, uint32]{
	bits:  32,
	chunk: (*core.Params).QuantizeChunk32,
	perValue: func(p *core.Params, w []uint32, src []float32) {
		for i, v := range src {
			w[i] = p.EncodeValue32(v)
		}
	},
	dechunk: (*core.Params).DequantizeChunk32,
	dePerValue: func(p *core.Params, dst []float32, w []uint32) {
		for i, x := range w {
			dst[i] = p.DecodeValue32(x)
		}
	},
}

var quant64 = quantPrec[float64, uint64]{
	bits:  64,
	chunk: (*core.Params).QuantizeChunk64,
	perValue: func(p *core.Params, w []uint64, src []float64) {
		for i, v := range src {
			w[i] = p.EncodeValue64(v)
		}
	},
	dechunk: (*core.Params).DequantizeChunk64,
	dePerValue: func(p *core.Params, dst []float64, w []uint64) {
		for i, x := range w {
			dst[i] = p.DecodeValue64(x)
		}
	},
}

// sampleChunks returns the first chunk of every ScaleSmall file of the
// precision with its ABS and REL Params.
func sampleChunks[F core.Float](data func(*sdrbench.File) []F) []quantChunk[F] {
	prec64 := core.IsPrec64[F]()
	n := core.ChunkWords32
	if prec64 {
		n = core.ChunkWords64
	}
	var out []quantChunk[F]
	for _, s := range sdrbench.Suites(sdrbench.ScaleSmall) {
		if s.Double != prec64 {
			continue
		}
		for _, f := range s.Files {
			src := append([]F(nil), data(f)[:min(n, f.Len())]...)
			f.Release()
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range src {
				lo, hi = min(lo, float64(v)), max(hi, float64(v))
			}
			abs, err := core.NewParams(core.ABS, 1e-3*(hi-lo), 0, prec64)
			if err != nil {
				continue // constant chunk: no ABS row for it
			}
			rel, err := core.NewParams(core.REL, 1e-3, 0, prec64)
			if err != nil {
				panic(err)
			}
			out = append(out, quantChunk[F]{src: src, abs: abs, rel: rel})
		}
	}
	return out
}

func quantRows[F core.Float, W uint32 | uint64](budget time.Duration, qp quantPrec[F, W], chunks []quantChunk[F]) ([]Result, []Speedup) {
	var results []Result
	var speedups []Speedup
	var q core.QuantScratch
	var values int
	for _, c := range chunks {
		values = max(values, len(c.src))
	}
	w := make([]W, values)
	dst := make([]F, values)
	var bytesPerOp int64
	for _, c := range chunks {
		bytesPerOp += int64(len(c.src)) * int64(qp.bits/8)
	}
	for _, mode := range []string{"abs", "rel"} {
		params := func(c *quantChunk[F]) *core.Params {
			if mode == "rel" {
				return &c.rel
			}
			return &c.abs
		}
		words := make([][]W, len(chunks))
		for k := range chunks {
			c := &chunks[k]
			words[k] = make([]W, len(c.src))
			qp.chunk(params(c), words[k], c.src, &q)
		}
		row := func(stage, impl string, f func()) Result {
			name := fmt.Sprintf("%s/%s/%d", stage, mode, qp.bits)
			if impl != "chunk" {
				name += "/" + impl
			}
			return stageResult(name, stage, impl, qp.bits, "sdrbench-small", bytesPerOp, budget, f)
		}
		pair := func(stage string, chunk, perValue func()) {
			c := row(stage, "chunk", chunk)
			v := row(stage, "per_value", perValue)
			results = append(results, c, v)
			speedups = append(speedups, Speedup{Name: c.Name, FastOverRef: v.NsPerOp / c.NsPerOp})
		}
		pair("quantize",
			func() {
				for k := range chunks {
					qp.chunk(params(&chunks[k]), w, chunks[k].src, &q)
				}
			},
			func() {
				for k := range chunks {
					qp.perValue(params(&chunks[k]), w, chunks[k].src)
				}
			})
		pair("dequantize",
			func() {
				for k := range chunks {
					qp.dechunk(params(&chunks[k]), dst, words[k], &q)
				}
			},
			func() {
				for k := range chunks {
					qp.dePerValue(params(&chunks[k]), dst, words[k])
				}
			})
	}
	return results, speedups
}

func quantBenchmarks(budget time.Duration) ([]Result, []Speedup) {
	r32, s32 := quantRows(budget, quant32, sampleChunks((*sdrbench.File).Data32))
	r64, s64 := quantRows(budget, quant64, sampleChunks((*sdrbench.File).Data64))
	return append(r32, r64...), append(s32, s64...)
}
