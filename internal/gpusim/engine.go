package gpusim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Block is the execution context a kernel sees for one thread block. The
// simulator executes the block's threads in lockstep phases: each call to
// ForEach corresponds to the code between two __syncthreads() barriers in
// the CUDA implementation, with every thread running the phase to
// completion in thread order. Because each phase is data-race-free by
// construction (threads write disjoint locations, as the real kernels
// must), sequential in-order execution yields exactly the lockstep result.
type Block struct {
	// Idx is the block index within the grid (blockIdx.x).
	Idx int
	// Threads is the number of threads in the block (blockDim.x).
	Threads int
}

// ForEach executes one barrier-delimited phase: fn runs once per thread.
func (b *Block) ForEach(fn func(t int)) {
	for t := 0; t < b.Threads; t++ {
		fn(t)
	}
}

// ForEachWarp executes one phase at warp granularity: fn runs once per
// 32-thread warp (PFPL's bit shuffle operates this way, §III.E).
func (b *Block) ForEachWarp(fn func(w int)) {
	warps := (b.Threads + 31) / 32
	for w := 0; w < warps; w++ {
		fn(w)
	}
}

// Grid launches kernel once per block. Blocks are assigned to workers
// dynamically through an atomic counter in increasing order — the same
// discipline the CUDA runtime and PFPL's dynamic chunk assignment follow —
// which, combined with the decoupled look-back's forward-progress argument,
// guarantees freedom from deadlock: any block currently waiting can only
// wait on lower-numbered blocks, and the lowest-numbered unfinished block
// never waits on an unstarted one.
// makeKernel is invoked once per worker (per simulated SM) so each worker
// owns private scratch playing the role of the SM's shared memory; the
// worker index it receives identifies that SM (tracing uses it to label
// per-SM tracks).
func (m DeviceModel) Grid(blocks, threadsPerBlock int, makeKernel func(sm int) func(b *Block)) {
	if threadsPerBlock > m.MaxThreadsPerBlock {
		threadsPerBlock = m.MaxThreadsPerBlock
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		kernel := makeKernel(0)
		blk := Block{Threads: threadsPerBlock}
		for i := 0; i < blocks; i++ {
			blk.Idx = i
			kernel(&blk)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kernel := makeKernel(w)
			blk := Block{Threads: threadsPerBlock}
			for {
				i64 := atomic.AddInt64(&next, 1) - 1
				if i64 >= int64(blocks) {
					return
				}
				i := int(i64)
				blk.Idx = i
				kernel(&blk)
			}
		}(w)
	}
	wg.Wait()
}

// Lookback implements Merrill and Garland's single-pass decoupled look-back
// prefix scan across blocks. Each block publishes its local aggregate as
// soon as it is known; to learn its exclusive prefix it walks backwards
// over predecessor descriptors, summing aggregates until it meets a block
// whose inclusive prefix is already final.
//
// Each descriptor packs the status flag and the value into one atomic word,
// as in Merrill and Garland's design. With the two in separate words a
// reader could observe "aggregate ready" and then load the value after the
// owner had already upgraded it to the inclusive prefix, counting every
// earlier block twice.
type Lookback struct {
	desc []uint64 // value<<statusBits | status
}

// Look-back status codes, held in the low statusBits of a descriptor.
const (
	statusInvalid   = 0 // nothing published yet
	statusAggregate = 1 // value is the block's own aggregate
	statusPrefix    = 2 // value is the block's inclusive prefix

	statusBits = 2
	statusMask = 1<<statusBits - 1
)

// NewLookback creates descriptors for n blocks.
func NewLookback(n int) *Lookback {
	return &Lookback{desc: make([]uint64, n)}
}

// descriptor packs a status and a non-negative value below 2^62.
func descriptor(status uint64, v int64) uint64 {
	if v < 0 || v > math.MaxInt64>>statusBits {
		panic("gpusim: look-back value outside the descriptor's 62-bit range")
	}
	return uint64(v)<<statusBits | status
}

// ExclusivePrefix publishes block b's aggregate and resolves the sum of all
// predecessor aggregates, spinning on not-yet-published descriptors.
func (lb *Lookback) ExclusivePrefix(b int, aggregate int64) int64 {
	atomic.StoreUint64(&lb.desc[b], descriptor(statusAggregate, aggregate))
	var prefix int64
	for pred := b - 1; pred >= 0; {
		d := atomic.LoadUint64(&lb.desc[pred])
		switch d & statusMask {
		case statusInvalid:
			runtime.Gosched()
		case statusAggregate:
			prefix += int64(d >> statusBits)
			pred--
		case statusPrefix:
			prefix += int64(d >> statusBits)
			pred = -1
		}
	}
	// Upgrade this block's descriptor to a final inclusive prefix so later
	// blocks can stop their look-back here.
	atomic.StoreUint64(&lb.desc[b], descriptor(statusPrefix, prefix+aggregate))
	return prefix
}

// Total blocks until every descriptor is final and returns the grand total.
// Call only after the grid has been launched (typically after Grid returns,
// when it is immediate).
func (lb *Lookback) Total() int64 {
	n := len(lb.desc)
	if n == 0 {
		return 0
	}
	for {
		d := atomic.LoadUint64(&lb.desc[n-1])
		if d&statusMask == statusPrefix {
			return int64(d >> statusBits)
		}
		runtime.Gosched()
	}
}
