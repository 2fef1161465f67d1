// Package bufpool recycles large scratch slices across the streams and
// requests of one process. Streams and served requests each need
// frame-sized buffers; taking them from a process-wide pool instead of
// making them fresh lets the next stream or request reuse them, the way a
// DAQ compressor sizes its buffers once and reuses them on every call.
package bufpool

import "sync"

// Pool recycles slices of T. It holds *[]T, so a Put stores a pointer and
// does not allocate; callers carry the box from Get to Put.
type Pool[T any] struct{ p sync.Pool }

// Get returns a box holding an empty slice with capacity at least n: the
// pooled slice when its capacity covers n, a fresh one otherwise. A pooled
// slice smaller than n is dropped, so a pool shared by several frame sizes
// never hands out a buffer too small for the frame at hand.
func (p *Pool[T]) Get(n int) *[]T {
	b, _ := p.p.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	if cap(*b) < n {
		*b = make([]T, 0, n)
	}
	*b = (*b)[:0]
	return b
}

// Put returns a box for reuse. Neither the box nor its slice may be used
// afterwards.
func (p *Pool[T]) Put(b *[]T) { p.p.Put(b) }

// Floats is one pool per float element type.
type Floats struct {
	f32 Pool[float32]
	f64 Pool[float64]
}

// Of returns the pool in fs for element type T.
func Of[T float32 | float64](fs *Floats) *Pool[T] {
	var z T
	if _, ok := any(z).(float64); ok {
		return any(&fs.f64).(*Pool[T])
	}
	return any(&fs.f32).(*Pool[T])
}
