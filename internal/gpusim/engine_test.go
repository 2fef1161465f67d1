package gpusim

import (
	"sync/atomic"
	"testing"
)

func TestGridVisitsEveryBlockOnce(t *testing.T) {
	forceParallel(t)
	for _, blocks := range []int{0, 1, 7, 256} {
		var visits [256]int32
		RTX4090.Grid(blocks, 64, func(int) func(*Block) {
			return func(b *Block) {
				atomic.AddInt32(&visits[b.Idx], 1)
			}
		})
		for i := 0; i < blocks; i++ {
			if visits[i] != 1 {
				t.Fatalf("blocks=%d: block %d visited %d times", blocks, i, visits[i])
			}
		}
	}
}

func TestGridClampsThreadsToDeviceLimit(t *testing.T) {
	small := DeviceModel{Name: "small", SMs: 1, CoresPerSM: 1, BoostClockGHz: 1,
		MemBandwidthGBs: 1, MaxThreadsPerBlock: 128}
	var got int32
	small.Grid(1, 1024, func(int) func(*Block) {
		return func(b *Block) { atomic.StoreInt32(&got, int32(b.Threads)) }
	})
	if got != 128 {
		t.Fatalf("block ran with %d threads, want 128", got)
	}
}

func TestForEachCoversAllThreads(t *testing.T) {
	b := Block{Threads: 96}
	var seen [96]bool
	b.ForEach(func(tid int) { seen[tid] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("thread %d not run", i)
		}
	}
	warps := 0
	b.ForEachWarp(func(w int) { warps++ })
	if warps != 3 {
		t.Fatalf("got %d warps, want 3", warps)
	}
}

func TestMakeKernelCalledPerWorkerNotPerBlock(t *testing.T) {
	forceParallel(t)
	var factories int32
	var blocks int32
	RTX4090.Grid(64, 32, func(int) func(*Block) {
		atomic.AddInt32(&factories, 1)
		return func(b *Block) { atomic.AddInt32(&blocks, 1) }
	})
	if blocks != 64 {
		t.Fatalf("ran %d blocks", blocks)
	}
	if factories > 64 {
		t.Fatalf("factory called %d times", factories)
	}
}

func TestLookbackSingleBlock(t *testing.T) {
	lb := NewLookback(1)
	if p := lb.ExclusivePrefix(0, 42); p != 0 {
		t.Fatalf("prefix %d, want 0", p)
	}
	if lb.Total() != 42 {
		t.Fatalf("total %d, want 42", lb.Total())
	}
}

func TestLookbackEmpty(t *testing.T) {
	lb := NewLookback(0)
	if lb.Total() != 0 {
		t.Fatal("empty lookback total nonzero")
	}
}
