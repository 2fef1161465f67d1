//go:build !race

// The race detector drops pooled items on purpose, so a guard that counts on
// recycled kernel scratch only holds without it.

package cpucomp

import (
	"runtime"
	"testing"
	"unsafe"

	"pfpl/internal/core"
)

// TestWarmDispatchAllocBudget pins that a warm Pool dispatch takes
// its workers' kernel scratch from the process-wide pool: what a dispatch
// still allocates (its small bookkeeping, and on compress the output
// buffer) stays below the size of one worker's scratch.
func TestWarmDispatchAllocBudget(t *testing.T) {
	forceParallel(t)
	p := NewPool(2)
	defer p.Close()
	src := synth(8*core.ChunkWords32, 9)
	comp, err := p.Compress32(src, core.ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, len(src))
	scratch := uint64(unsafe.Sizeof(core.Scratch32{}))
	plan, err := core.PlanEncode(src, core.ABS, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		run     func()
		payload uint64 // bytes the dispatch must allocate for its result
	}{
		{"compress", func() {
			Exec[float32]{p}.Encode([]core.EncodePlan[float32]{plan}, nil)
		}, uint64(plan.MaxLen)},
		{"decompress", func() {
			dp, err := core.PlanDecode(comp, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := (Exec[float32]{p}).Decode([]core.DecodePlan[float32]{dp}, nil); err != nil {
				t.Fatal(err)
			}
		}, 0},
	}
	for _, tc := range cases {
		const runs = 50
		var before, after runtime.MemStats
		allocs := testing.AllocsPerRun(runs, tc.run) // also warms the pool
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tc.run()
		}
		runtime.ReadMemStats(&after)
		extra := (after.TotalAlloc-before.TotalAlloc)/runs - tc.payload
		t.Logf("%s: %.0f allocs, %d bytes per dispatch beyond the result", tc.name, allocs, extra)
		if extra >= scratch {
			t.Errorf("%s: a warm dispatch allocates %d bytes beyond its result; one kernel scratch is %d", tc.name, extra, scratch)
		}
	}
}
