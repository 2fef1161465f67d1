// Command pfpl compresses and decompresses raw binary floating-point files
// with the PFPL algorithm.
//
// Usage:
//
//	pfpl -mode abs -bound 1e-3 -in data.f32 -out data.pfpl
//	pfpl -stream -stream-workers 4 -in data.f32 -out data.pfpls
//	pfpl -d -in data.pfpl -out restored.f32
//	pfpl -stat -in data.pfpl
//	pfpl serve -addr :8080
//	pfpl top :8080
//
// Input files for compression are raw little-endian float32 arrays (or
// float64 with -double). The device flag selects the executor: serial, cpu,
// or gpu (the simulated RTX 4090).
//
// -stream writes a framed stream (independent length-prefixed frames)
// through the concurrent frame pipeline instead of one monolithic
// container; -stream-frame sets the values per frame and -stream-workers
// the number of frames compressed in flight. Framed streams are detected
// automatically by -d and -stat. Adding -index appends a seekable footer
// index (frame offsets, value counts, SHA-256 digests) that -d -range
// OFFSET:COUNT uses to decode a value window touching only the covering
// frames and chunks.
//
// The serve subcommand runs the bounded-concurrency HTTP service (see
// internal/server); top polls a running daemon's GET /v1/status into a
// live per-route RED view.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"pfpl"
	"pfpl/internal/core"
	"pfpl/internal/gpusim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pfpl serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		if err := topMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pfpl top:", err)
			os.Exit(1)
		}
		return
	}
	var cfg cliConfig
	flag.StringVar(&cfg.mode, "mode", "abs", "error-bound type: abs, rel, or noa")
	flag.Float64Var(&cfg.bound, "bound", 1e-3, "error bound")
	flag.BoolVar(&cfg.double, "double", false, "treat input as float64 (compression only)")
	flag.BoolVar(&cfg.decompress, "d", false, "decompress instead of compress")
	flag.BoolVar(&cfg.stat, "stat", false, "print stream info and exit")
	flag.StringVar(&cfg.in, "in", "", "input file (required)")
	flag.StringVar(&cfg.out, "out", "", "output file (required unless -stat)")
	flag.StringVar(&cfg.device, "device", "cpu", "executor: serial, cpu, or gpu")
	flag.BoolVar(&cfg.checksum, "sum", false, "append/verify a CRC-32C integrity trailer")
	flag.BoolVar(&cfg.stream, "stream", false, "compress as a framed stream through the frame pipeline")
	flag.IntVar(&cfg.streamFrame, "stream-frame", 0, "values per stream frame (0 = default)")
	flag.IntVar(&cfg.streamWorkers, "stream-workers", 0, "frames compressed concurrently (0 = one per CPU)")
	flag.BoolVar(&cfg.index, "index", false, "with -stream: append a seekable footer index to the stream")
	flag.StringVar(&cfg.rng, "range", "", "with -d: decode only OFFSET:COUNT values (element units) via random access")
	flag.StringVar(&cfg.trace, "trace", "", "write a Chrome trace-event JSON timeline of the run to this file (Perfetto-viewable); with -device gpu this is the modelled per-SM schedule")
	flag.BoolVar(&cfg.stats, "stats", false, "print a per-stage span breakdown of the run to stderr")
	flag.Parse()
	if cfg.in == "" || (cfg.out == "" && !cfg.stat) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pfpl:", err)
		os.Exit(1)
	}
}

type cliConfig struct {
	mode          string
	bound         float64
	double        bool
	decompress    bool
	stat          bool
	in, out       string
	device        string
	checksum      bool
	stream        bool
	streamFrame   int
	streamWorkers int
	index         bool
	rng           string
	trace         string
	stats         bool
	tracer        *pfpl.Tracer
}

func pickDevice(name string) (pfpl.Device, error) {
	switch strings.ToLower(name) {
	case "serial":
		return pfpl.Serial(), nil
	case "cpu", "":
		return pfpl.CPU(0), nil
	case "gpu":
		return pfpl.GPU(pfpl.RTX4090), nil
	}
	return nil, fmt.Errorf("unknown device %q (want serial, cpu, or gpu)", name)
}

func pickMode(name string) (pfpl.Mode, error) {
	switch strings.ToLower(name) {
	case "abs":
		return pfpl.ABS, nil
	case "rel":
		return pfpl.REL, nil
	case "noa":
		return pfpl.NOA, nil
	}
	return pfpl.ABS, fmt.Errorf("unknown mode %q (want abs, rel, or noa)", name)
}

// framePrefix is the streaming frame length-prefix size.
const framePrefix = 4

// isFramed reports whether data is a framed stream: the container magic
// "PFPL" appears after a 4-byte length prefix instead of at offset 0.
func isFramed(data []byte) bool {
	return len(data) >= framePrefix+4 &&
		string(data[:4]) != "PFPL" &&
		string(data[framePrefix:framePrefix+4]) == "PFPL"
}

func run(cfg cliConfig) error {
	dev, err := pickDevice(cfg.device)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(cfg.in)
	if err != nil {
		return err
	}
	if cfg.trace != "" || cfg.stats {
		cfg.tracer = pfpl.NewTracer(1 << 18)
	}

	if cfg.stat {
		if isFramed(data) {
			return statStream(data)
		}
		info, err := pfpl.Stat(data)
		if err != nil {
			return err
		}
		chunks, rawChunks, payload, err := pfpl.ChunkOutcomes(data)
		if err != nil {
			return err
		}
		fmt.Printf("mode=%v bound=%g double=%v raw=%v count=%d chunks=%d raw_chunks=%d payload_bytes=%d checksum=%v\n",
			info.Mode, info.Bound, info.Double, info.Raw, info.Count, chunks, rawChunks, payload, info.Checksummed)
		if info.Mode == pfpl.NOA {
			fmt.Printf("noa value range=%g\n", info.NOARange)
		}
		return nil
	}

	if cfg.decompress {
		if cfg.rng != "" {
			return decompressRange(cfg, data)
		}
		if isFramed(data) {
			return decompressStream(cfg, dev, data)
		}
		info, err := pfpl.Stat(data)
		if err != nil {
			return err
		}
		opts := pfpl.Options{Device: dev, Trace: cfg.tracer}
		t0 := time.Now()
		var outBytes []byte
		if info.Double {
			vals, err := pfpl.Decompress64(data, nil, opts)
			if err != nil {
				return err
			}
			outBytes = f64Bytes(vals)
		} else {
			vals, err := pfpl.Decompress32(data, nil, opts)
			if err != nil {
				return err
			}
			outBytes = f32Bytes(vals)
		}
		dt := time.Since(t0)
		if err := os.WriteFile(cfg.out, outBytes, 0o644); err != nil {
			return err
		}
		fmt.Printf("decompressed %d -> %d bytes in %v (%.2f GB/s, %s)\n",
			len(data), len(outBytes), dt, float64(len(outBytes))/dt.Seconds()/1e9, dev.Name())
		return finishObserve(cfg, nil)
	}

	mode, err := pickMode(cfg.mode)
	if err != nil {
		return err
	}
	if cfg.stream {
		return compressStream(cfg, mode, data)
	}
	var comp []byte
	var rawLen int
	t0 := time.Now()
	if cfg.double {
		vals, err := f64Vals(data)
		if err != nil {
			return err
		}
		rawLen = len(data)
		comp, err = pfpl.Compress64(vals, pfpl.Options{Mode: mode, Bound: cfg.bound, Device: dev, Checksum: cfg.checksum, Trace: cfg.tracer})
		if err != nil {
			return err
		}
	} else {
		vals, err := f32Vals(data)
		if err != nil {
			return err
		}
		rawLen = len(data)
		comp, err = pfpl.Compress32(vals, pfpl.Options{Mode: mode, Bound: cfg.bound, Device: dev, Checksum: cfg.checksum, Trace: cfg.tracer})
		if err != nil {
			return err
		}
	}
	dt := time.Since(t0)
	if err := os.WriteFile(cfg.out, comp, 0o644); err != nil {
		return err
	}
	fmt.Printf("compressed %d -> %d bytes (ratio %.2f) in %v (%.2f GB/s, %s)\n",
		rawLen, len(comp), float64(rawLen)/float64(len(comp)), dt,
		float64(rawLen)/dt.Seconds()/1e9, dev.Name())
	return finishObserve(cfg, comp)
}

// finishObserve emits the run's observability outputs: the -stats stage
// breakdown to stderr, and the -trace Chrome trace-event file. For a GPU
// compress run the trace is the modelled per-SM schedule (one lane per
// simulated SM, derived from the device's roofline model and the actual
// chunk sizes of comp); every other run exports the runtime spans the
// executors recorded.
func finishObserve(cfg cliConfig, comp []byte) error {
	if cfg.tracer == nil {
		return nil
	}
	if cfg.stats {
		fmt.Fprint(os.Stderr, cfg.tracer.Stats().String())
	}
	if cfg.trace == "" {
		return nil
	}
	f, err := os.Create(cfg.trace)
	if err != nil {
		return err
	}
	defer f.Close()
	if comp != nil && strings.ToLower(cfg.device) == "gpu" {
		body, err := core.VerifyAndStripChecksum(comp)
		if err != nil {
			return err
		}
		tl, err := gpusim.ModelTimeline(gpusim.RTX4090, body)
		if err != nil {
			return err
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			return err
		}
	} else if err := pfpl.WriteTrace(f, cfg.tracer, "pfpl "+cfg.device); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", cfg.trace)
	return f.Close()
}

// compressStream writes data through the pipelined streaming writer. The
// explicit device is respected only when the user picked a non-default
// one; with the default "cpu" the pipeline's own policy applies (serial
// per frame under a multi-worker pipeline). The bytes are identical either
// way.
func compressStream(cfg cliConfig, mode pfpl.Mode, data []byte) error {
	opts := pfpl.Options{Mode: mode, Bound: cfg.bound, Checksum: cfg.checksum}
	if strings.ToLower(cfg.device) != "cpu" && cfg.device != "" {
		dev, err := pickDevice(cfg.device)
		if err != nil {
			return err
		}
		opts.Device = dev
	}
	sopts := pfpl.StreamOptions{Concurrency: cfg.streamWorkers, FrameValues: cfg.streamFrame, Index: cfg.index, Trace: cfg.tracer}
	var sink bytes.Buffer
	t0 := time.Now()
	if cfg.double {
		vals, err := f64Vals(data)
		if err != nil {
			return err
		}
		w, err := pfpl.NewWriter64(&sink, opts, sopts)
		if err != nil {
			return err
		}
		if err := w.Write(vals); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	} else {
		vals, err := f32Vals(data)
		if err != nil {
			return err
		}
		w, err := pfpl.NewWriter32(&sink, opts, sopts)
		if err != nil {
			return err
		}
		if err := w.Write(vals); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	dt := time.Since(t0)
	if err := os.WriteFile(cfg.out, sink.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("streamed %d -> %d bytes (ratio %.2f) in %v (%.2f GB/s, %d workers)\n",
		len(data), sink.Len(), float64(len(data))/float64(sink.Len()), dt,
		float64(len(data))/dt.Seconds()/1e9, cfg.streamWorkers)
	return finishObserve(cfg, nil)
}

// decompressStream decodes a framed stream with the read-ahead reader,
// auto-detecting the precision from the first frame's container header.
func decompressStream(cfg cliConfig, dev pfpl.Device, data []byte) error {
	info, err := pfpl.Stat(data[framePrefix:])
	if err != nil {
		return err
	}
	opts := pfpl.Options{Device: dev, Trace: cfg.tracer}
	t0 := time.Now()
	var outBytes []byte
	if info.Double {
		r := pfpl.NewReader64(bytes.NewReader(data), opts)
		var vals []float64
		buf := make([]float64, 1<<16)
		for {
			n, err := r.Read(buf)
			vals = append(vals, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		outBytes = f64Bytes(vals)
	} else {
		r := pfpl.NewReader32(bytes.NewReader(data), opts)
		var vals []float32
		buf := make([]float32, 1<<16)
		for {
			n, err := r.Read(buf)
			vals = append(vals, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		outBytes = f32Bytes(vals)
	}
	dt := time.Since(t0)
	if err := os.WriteFile(cfg.out, outBytes, 0o644); err != nil {
		return err
	}
	fmt.Printf("decompressed framed stream %d -> %d bytes in %v (%.2f GB/s)\n",
		len(data), len(outBytes), dt, float64(len(outBytes))/dt.Seconds()/1e9)
	return finishObserve(cfg, nil)
}

// parseRange parses the -range flag ("OFFSET:COUNT", element units).
func parseRange(s string) (offset, count int64, err error) {
	o, c, ok := strings.Cut(s, ":")
	if ok {
		offset, err = strconv.ParseInt(o, 10, 64)
		if err == nil {
			count, err = strconv.ParseInt(c, 10, 64)
		}
	}
	if !ok || err != nil || offset < 0 || count < 0 {
		return 0, 0, fmt.Errorf("bad -range %q (want OFFSET:COUNT, both non-negative)", s)
	}
	return offset, count, nil
}

// decompressRange decodes only the requested value window. For an indexed
// framed stream it opens the footer index and seeks to the covering frames;
// for a monolithic container it decodes the covering chunks. Index-less
// framed streams are rejected with a pointer at -index, rather than
// silently decoding everything.
func decompressRange(cfg cliConfig, data []byte) error {
	offset, count, err := parseRange(cfg.rng)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var outBytes []byte
	if isFramed(data) {
		x, err := pfpl.OpenIndexed(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if errors.Is(err, pfpl.ErrNoIndex) {
				return fmt.Errorf("framed stream has no footer index (recompress with -stream -index): %w", err)
			}
			return err
		}
		if x.Double() {
			vals, err := x.Range64(offset, count)
			if err != nil {
				return err
			}
			outBytes = f64Bytes(vals)
		} else {
			vals, err := x.Range32(offset, count)
			if err != nil {
				return err
			}
			outBytes = f32Bytes(vals)
		}
		dt := time.Since(t0)
		st := x.Stats()
		if err := os.WriteFile(cfg.out, outBytes, 0o644); err != nil {
			return err
		}
		fmt.Printf("range [%d:%d) -> %d bytes in %v (read %d of %d stream bytes, %d frames, %d chunks)\n",
			offset, offset+count, len(outBytes), dt, st.BytesRead, len(data), st.FramesTouched, st.ChunksDecoded)
		return nil
	}
	info, err := pfpl.Stat(data)
	if err != nil {
		return err
	}
	if offset > int64(math.MaxInt) || count > int64(math.MaxInt) {
		return fmt.Errorf("-range %q out of addressable range", cfg.rng)
	}
	if info.Double {
		vals, err := pfpl.DecompressRange64(data, int(offset), int(count))
		if err != nil {
			return err
		}
		outBytes = f64Bytes(vals)
	} else {
		vals, err := pfpl.DecompressRange32(data, int(offset), int(count))
		if err != nil {
			return err
		}
		outBytes = f32Bytes(vals)
	}
	dt := time.Since(t0)
	if err := os.WriteFile(cfg.out, outBytes, 0o644); err != nil {
		return err
	}
	fmt.Printf("range [%d:%d) -> %d bytes in %v\n", offset, offset+count, len(outBytes), dt)
	return nil
}

// statStream walks the frames of a framed stream and prints a summary,
// including the chunk outcomes (raw-fallback counts) summed across frames.
// A footer index, if present, ends the walk; the summary reports it.
func statStream(data []byte) error {
	frames := 0
	var values uint64
	var chunks, rawChunks int
	var payload int64
	var first pfpl.Info
	indexed := false
	for off := 0; off+framePrefix <= len(data); {
		word := binary.LittleEndian.Uint32(data[off:])
		if word == core.IndexMagicWord {
			// The footer index begins here; verify it by opening it.
			if _, err := pfpl.OpenIndexed(bytes.NewReader(data), int64(len(data))); err != nil {
				return fmt.Errorf("framed stream: footer index at byte %d: %w", off, err)
			}
			indexed = true
			break
		}
		n := int64(word)
		body := int64(off) + framePrefix
		if n <= 0 || body+n > int64(len(data)) {
			return fmt.Errorf("framed stream: frame %d at byte %d truncated or corrupt", frames, off)
		}
		info, err := pfpl.Stat(data[body : body+n])
		if err != nil {
			return fmt.Errorf("framed stream: frame %d at byte %d: %w", frames, off, err)
		}
		fc, fr, fp, err := pfpl.ChunkOutcomes(data[body : body+n])
		if err != nil {
			return fmt.Errorf("framed stream: frame %d at byte %d: %w", frames, off, err)
		}
		chunks += fc
		rawChunks += fr
		payload += fp
		if frames == 0 {
			first = info
		}
		frames++
		values += uint64(info.Count)
		off = int(body + n)
	}
	fmt.Printf("framed stream: frames=%d values=%d chunks=%d raw_chunks=%d payload_bytes=%d mode=%v bound=%g double=%v checksum=%v indexed=%v\n",
		frames, values, chunks, rawChunks, payload, first.Mode, first.Bound, first.Double, first.Checksummed, indexed)
	return nil
}

func f32Vals(data []byte) ([]float32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("input size %d is not a multiple of 4", len(data))
	}
	vals := make([]float32, len(data)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return vals, nil
}

func f64Vals(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("input size %d is not a multiple of 8", len(data))
	}
	vals := make([]float64, len(data)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vals, nil
}

func f32Bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func f64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}
