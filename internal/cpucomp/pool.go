package cpucomp

import (
	"sync"

	"pfpl/internal/core"
)

// Pool is the set of goroutines a call's chunks are dispatched on. A pool
// made by NewPool starts persistent workers once and lets each call borrow
// however many are idle: a server handling many small requests would
// otherwise pay a goroutine spawn (and the scheduler churn of unbounded
// goroutine counts) on every request. A pool made by SpawnPool has no
// persistent workers; each call spawns its own participants, which is
// right for one-off batch runs.
//
// Borrowing is non-blocking: a call always runs one participant on its own
// goroutine (guaranteeing progress even with every worker busy) and offers
// the remaining participant slots to idle workers. Under load the pool
// therefore degrades gracefully — concurrent requests each get fewer
// helpers instead of queueing or oversubscribing the scheduler — and the
// total number of compression goroutines in the process stays bounded by
// the pool size plus one per in-flight call.
//
// The compressed bytes are identical for every effective participant count
// (the carry chain fixes chunk placement), so sharing a Pool never changes
// output — the cross-executor bit-identity that internal/conformance pins.
type Pool struct {
	tasks chan func() // nil: no persistent workers, calls spawn participants
	quit  chan struct{}
	size  int // persistent workers, or a spawning pool's requested count

	closeOnce sync.Once
}

// NewPool starts a pool with the given worker count (0 = one per logical
// CPU).
func NewPool(workers int) *Pool {
	n := Workers(workers)
	p := &Pool{tasks: make(chan func()), quit: make(chan struct{}), size: n}
	for i := 0; i < n; i++ {
		go func() {
			for {
				select {
				case task := <-p.tasks:
					task()
				case <-p.quit:
					return
				}
			}
		}()
	}
	return p
}

// SpawnPool returns a pool without persistent workers: every call spawns up
// to the given number of participants (0 = GOMAXPROCS at call time).
func SpawnPool(workers int) *Pool { return &Pool{size: workers} }

// Size returns the number of participants a call may use.
func (p *Pool) Size() int {
	if p.tasks == nil {
		return Workers(p.size)
	}
	return p.size
}

// Close stops the workers after in-flight tasks finish. Calls in progress
// complete normally (their inline participant finishes the work); new calls
// after Close run single-threaded on the caller. The tasks channel is never
// closed — dispatch may race with Close, and a send into a quit pool must
// fall through to the inline path, not panic. Closing a spawning pool is a
// no-op.
func (p *Pool) Close() {
	if p.tasks != nil {
		p.closeOnce.Do(func() { close(p.quit) })
	}
}

// dispatch runs work on n concurrent participants and returns when all of
// them have finished. The calling goroutine is always the final
// participant, so the call makes progress even when the pool is saturated
// by other requests. A spawning pool starts the other n-1; a persistent
// pool offers them to idle workers (an unbuffered send succeeds only when a
// worker is actually waiting) and drops the slots nobody takes.
func (p *Pool) dispatch(n int, work func()) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			work()
		}
		if p.tasks == nil {
			go task()
			continue
		}
		select {
		case p.tasks <- task:
		default:
			wg.Done() // every worker busy; the inline participant covers it
		}
	}
	work()
	wg.Wait()
}

// Compress32 compresses src using the pool's workers.
func (p *Pool) Compress32(src []float32, mode core.Mode, bound float64) ([]byte, error) {
	return core.Compress(Exec[float32]{p}, src, mode, bound, nil)
}

// Compress64 compresses double-precision src using the pool's workers.
func (p *Pool) Compress64(src []float64, mode core.Mode, bound float64) ([]byte, error) {
	return core.Compress(Exec[float64]{p}, src, mode, bound, nil)
}
