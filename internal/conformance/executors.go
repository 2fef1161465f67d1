package conformance

import (
	"runtime"
	"strconv"
	"sync"

	"pfpl"
)

// Executor is one entry in the differential sweep: a public-API device plus
// sweep metadata. The serial executor is the reference every other executor
// must match byte for byte.
type Executor struct {
	Name string
	Dev  pfpl.Device
	// Reference marks the serial executor the others are compared against.
	Reference bool
	// Short marks executors retained in the `-short` subset.
	Short bool
}

// pool2 is the sweep's persistent two-worker CPU pool. It is shared by
// every sweep in the process and never closed: its workers borrow from one
// dispatcher across calls, which is the scheduling the serving daemon and
// long-running batch jobs use.
var pool2 = sync.OnceValue(func() *pfpl.CPUPool { return pfpl.NewCPUPool(2) })

// Executors returns the sweep set: the serial reference, the parallel CPU
// executor at worker counts 1, 2, 7, and GOMAXPROCS, a persistent two-worker
// CPU pool, and the simulated GPU under two device models with different SM
// counts and block limits (RTX 4090 vs A100), exercising different grid
// shapes in the kernels.
func Executors() []Executor {
	return []Executor{
		{Name: "serial", Dev: pfpl.Serial(), Reference: true, Short: true},
		{Name: "cpu-w1", Dev: pfpl.CPU(1)},
		{Name: "cpu-w2", Dev: pfpl.CPU(2), Short: true},
		{Name: "cpu-w7", Dev: pfpl.CPU(7)},
		{Name: "cpu-w" + strconv.Itoa(runtime.GOMAXPROCS(0)), Dev: pfpl.CPU(0)},
		{Name: "cpu-pool2", Dev: pool2(), Short: true},
		{Name: "gpu-rtx4090", Dev: pfpl.GPU(pfpl.RTX4090), Short: true},
		{Name: "gpu-a100", Dev: pfpl.GPU(pfpl.A100)},
	}
}

// Config is one (mode, bound) point of the sweep.
type Config struct {
	Mode  pfpl.Mode
	Bound float64
}

// Configs returns the three bound modes at bounds chosen so every corpus
// shape exercises both the quantized path and the lossless-inline fallback.
func Configs() []Config {
	return []Config{
		{Mode: pfpl.ABS, Bound: 1e-3},
		{Mode: pfpl.REL, Bound: 1e-2},
		{Mode: pfpl.NOA, Bound: 1e-4},
	}
}

// Name returns a stable identifier for the config, used in test names and
// golden-vector keys.
func (c Config) Name() string {
	return c.Mode.String() + "-" + strconv.FormatFloat(c.Bound, 'g', -1, 64)
}
