// Package lcsim is a miniature reproduction of the LC framework the PFPL
// authors used to design their lossless pipeline (paper §III.D: "We
// designed these stages with the LC framework, which can automatically
// synthesize parallelized data compressors ... we used LC to generate many
// algorithms and then optimized the best").
//
// It provides a library of chunk-level transform components (the building
// blocks PFPL's stages came from), composes them into candidate pipelines,
// and searches for the best compression ratio on sample data. The search
// over this component set rediscovers PFPL's delta -> negabinary ->
// bit-shuffle -> zero-elimination pipeline, reproducing the paper's design
// claim; the eval harness exposes the search as an experiment.
package lcsim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"pfpl/internal/bits"
	"pfpl/internal/core"
)

// Component is one word-level transform in a candidate pipeline. Transforms
// operate in place on a chunk's quantized words and must be invertible (the
// inverse is not needed for ratio search, but the contract keeps the
// library honest and the tests verify it).
type Component struct {
	Name    string
	Forward func(words []uint32)
	Inverse func(words []uint32)
}

// Terminal is the final byte-level coding stage of a candidate pipeline.
type Terminal struct {
	Name string
	// Size returns the encoded byte count for the chunk's byte image.
	Size func(data []byte) int
	// Sequential marks coders whose decode has a serial dependence chain
	// (e.g. run-length codes). PFPL's search excluded them: only
	// transformations "that can be implemented efficiently on CPUs and
	// GPUs" were considered (§III.D).
	Sequential bool
}

// Components returns the word-level transform library: the pieces LC
// composes. All are cheap, parallelism-friendly operations — the design
// constraint PFPL imposed (§III.D: "we only considered transformations
// that can be implemented efficiently on CPUs and GPUs").
func Components() []Component {
	return []Component{
		{
			Name:    "delta",
			Forward: deltaFwd,
			Inverse: deltaInv,
		},
		{
			Name:    "xor-prev",
			Forward: xorFwd,
			Inverse: xorInv,
		},
		{
			Name: "negabinary",
			Forward: func(w []uint32) {
				for i := range w {
					w[i] = bits.ToNegabinary(w[i])
				}
			},
			Inverse: func(w []uint32) {
				for i := range w {
					w[i] = bits.FromNegabinary(w[i])
				}
			},
		},
		{
			Name: "zigzag",
			Forward: func(w []uint32) {
				for i := range w {
					w[i] = bits.ZigZag32(int32(w[i]))
				}
			},
			Inverse: func(w []uint32) {
				for i := range w {
					w[i] = uint32(bits.UnZigZag32(w[i]))
				}
			},
		},
		{
			Name:    "bitshuffle",
			Forward: shuffle,
			Inverse: shuffle, // involution
		},
	}
}

func deltaFwd(w []uint32) {
	prev := uint32(0)
	for i, x := range w {
		w[i] = x - prev
		prev = x
	}
}

func deltaInv(w []uint32) {
	prev := uint32(0)
	for i := range w {
		prev += w[i]
		w[i] = prev
	}
}

func xorFwd(w []uint32) {
	prev := uint32(0)
	for i, x := range w {
		w[i] = x ^ prev
		prev = x
	}
}

func xorInv(w []uint32) {
	prev := uint32(0)
	for i := range w {
		prev ^= w[i]
		w[i] = prev
	}
}

func shuffle(w []uint32) {
	for i := 0; i+32 <= len(w); i += 32 {
		bits.Transpose32((*[32]uint32)(w[i : i+32]))
	}
}

// Terminals returns the byte-level coder library.
func Terminals() []Terminal {
	return []Terminal{
		{Name: "raw", Size: func(d []byte) int { return len(d) }},
		{Name: "zero-elim", Size: func(d []byte) int {
			return len(core.ZeroElimEncode(d, nil))
		}},
		{Name: "rle0", Size: rle0Size, Sequential: true},
	}
}

// rle0Size models a simple zero-run-length coder: runs of zero bytes become
// a marker and a varint length.
func rle0Size(d []byte) int {
	size := 0
	i := 0
	for i < len(d) {
		if d[i] != 0 {
			size++
			i++
			continue
		}
		j := i
		for j < len(d) && d[j] == 0 {
			j++
		}
		size += 1 + varintLen(j-i)
		i = j
	}
	return size
}

func varintLen(n int) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// Pipeline is one candidate: an ordered component list plus a terminal.
type Pipeline struct {
	Stages   []Component
	Terminal Terminal
}

// Name renders the candidate, e.g. "delta|negabinary|bitshuffle+zero-elim".
func (p Pipeline) Name() string {
	names := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		names[i] = s.Name
	}
	if len(names) == 0 {
		return "identity+" + p.Terminal.Name
	}
	return strings.Join(names, "|") + "+" + p.Terminal.Name
}

// Size runs the candidate over one chunk of quantized words, returning the
// encoded byte count (with PFPL's raw-chunk cap applied).
func (p Pipeline) Size(words []uint32) int {
	buf := make([]uint32, len(words))
	copy(buf, words)
	for _, s := range p.Stages {
		s.Forward(buf)
	}
	data := make([]byte, len(buf)*4)
	for i, w := range buf {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	size := p.Terminal.Size(data)
	if size > len(data) {
		size = len(data)
	}
	return size
}

// Result is one scored candidate.
type Result struct {
	Pipeline string
	Ratio    float64
}

// Enumerate builds every pipeline of up to maxStages distinct components
// (order matters) combined with every terminal — the LC-style candidate
// space. When gpuFriendly is set, sequential terminals are excluded, the
// constraint PFPL's search imposed (§III.D).
func Enumerate(maxStages int, gpuFriendly bool) []Pipeline {
	comps := Components()
	var terms []Terminal
	for _, t := range Terminals() {
		if gpuFriendly && t.Sequential {
			continue
		}
		terms = append(terms, t)
	}
	var out []Pipeline
	var rec func(cur []Component, used uint)
	rec = func(cur []Component, used uint) {
		for _, t := range terms {
			stages := make([]Component, len(cur))
			copy(stages, cur)
			out = append(out, Pipeline{Stages: stages, Terminal: t})
		}
		if len(cur) == maxStages {
			return
		}
		for i, c := range comps {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			rec(append(cur, c), used|1<<uint(i))
		}
	}
	rec(nil, 0)
	return out
}

// Search scores every GPU-friendly candidate on the quantized chunks of
// the sample data (ABS quantizer at the given bound) and returns the
// ranking, best first.
func Search(sample []float32, bound float64, maxStages int) ([]Result, error) {
	return search(sample, bound, maxStages, true)
}

// SearchAll includes the sequential coders PFPL's constraint excluded,
// showing what a CPU-only design could pick instead.
func SearchAll(sample []float32, bound float64, maxStages int) ([]Result, error) {
	return search(sample, bound, maxStages, false)
}

func search(sample []float32, bound float64, maxStages int, gpuFriendly bool) ([]Result, error) {
	params, err := core.NewParams(core.ABS, bound, 0, false)
	if err != nil {
		return nil, err
	}
	// Quantize once per chunk; candidates share the words.
	var chunks [][]uint32
	for lo := 0; lo < len(sample); lo += core.ChunkWords32 {
		hi := min(lo+core.ChunkWords32, len(sample))
		words := make([]uint32, hi-lo)
		for i := range words {
			words[i] = core.EncodeValue[float32, uint32](&params, sample[lo+i])
		}
		chunks = append(chunks, words)
	}
	cands := Enumerate(maxStages, gpuFriendly)
	results := make([]Result, 0, len(cands))
	for _, cand := range cands {
		total, raw := 0, 0
		for _, words := range chunks {
			total += cand.Size(words)
			raw += len(words) * 4
		}
		if total == 0 {
			continue
		}
		results = append(results, Result{Pipeline: cand.Name(), Ratio: float64(raw) / float64(total)})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Ratio != results[j].Ratio {
			return results[i].Ratio > results[j].Ratio
		}
		return results[i].Pipeline < results[j].Pipeline
	})
	return results, nil
}

// PFPLPipelineName is the candidate PFPL shipped (§III.D).
const PFPLPipelineName = "delta|negabinary|bitshuffle+zero-elim"

// Describe summarizes a search for logs and reports.
func Describe(results []Result, top int) []string {
	var out []string
	for i, r := range results {
		if i == top {
			break
		}
		marker := " "
		if r.Pipeline == PFPLPipelineName {
			marker = "*"
		}
		out = append(out, fmt.Sprintf("%s %-55s ratio %.2f", marker, r.Pipeline, r.Ratio))
	}
	return out
}
