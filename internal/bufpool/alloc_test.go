//go:build !race

// The race detector drops pooled items on purpose, so a warm Get can
// allocate under it.

package bufpool

import "testing"

// TestGetPutZeroAllocs: a pool holds *[]T, so a warm Get and Put allocate
// nothing.
func TestGetPutZeroAllocs(t *testing.T) {
	var p Pool[float32]
	p.Put(p.Get(1 << 10))
	if got := testing.AllocsPerRun(100, func() { p.Put(p.Get(1 << 10)) }); got != 0 {
		t.Fatalf("warm Get/Put allocates %.1f/op", got)
	}
}
