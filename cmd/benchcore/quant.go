package main

import (
	"fmt"
	"math"
	"time"

	"pfpl/internal/bits"
	"pfpl/internal/core"
	"pfpl/internal/sdrbench"
)

// Quantizer rows: the chunk kernels (core.QuantizeChunk and
// core.DequantizeChunk, impl "chunk") against the per-value
// EncodeValue/DecodeValue loop they replaced (impl "per_value"), per mode
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

// perValue is the per-value quantize loop the chunk kernel replaced.
func perValue[F core.Float, W bits.Word](p *core.Params, w []W, src []F) {
	for i, v := range src {
		w[i] = core.EncodeValue[F, W](p, v)
	}
}

// dePerValue is the per-value dequantize loop.
func dePerValue[F core.Float, W bits.Word](p *core.Params, dst []F, w []W) {
	for i, x := range w {
		dst[i] = core.DecodeValue[F](p, x)
	}
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

func quantRows[F core.Float, W bits.Word](budget time.Duration, chunks []quantChunk[F]) ([]Result, []Speedup) {
	prec := bits.Width[W]()
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
		bytesPerOp += int64(len(c.src)) * int64(prec/8)
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
			core.QuantizeChunk(params(c), words[k], c.src, &q)
		}
		row := func(stage, impl string, f func()) Result {
			name := fmt.Sprintf("%s/%s/%d", stage, mode, prec)
			if impl != "chunk" {
				name += "/" + impl
			}
			return stageResult(name, stage, impl, prec, "sdrbench-small", bytesPerOp, budget, f)
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
					core.QuantizeChunk(params(&chunks[k]), w, chunks[k].src, &q)
				}
			},
			func() {
				for k := range chunks {
					perValue(params(&chunks[k]), w, chunks[k].src)
				}
			})
		pair("dequantize",
			func() {
				for k := range chunks {
					core.DequantizeChunk(params(&chunks[k]), dst, words[k], &q)
				}
			},
			func() {
				for k := range chunks {
					dePerValue(params(&chunks[k]), dst, words[k])
				}
			})
	}
	return results, speedups
}

func quantBenchmarks(budget time.Duration) ([]Result, []Speedup) {
	r32, s32 := quantRows[float32, uint32](budget, sampleChunks((*sdrbench.File).Data32))
	r64, s64 := quantRows[float64, uint64](budget, sampleChunks((*sdrbench.File).Data64))
	return append(r32, r64...), append(s32, s64...)
}
