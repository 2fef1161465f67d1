package cpucomp

// Chain orders coarse-grained work the way the relay orders chunks: it
// hands out one token per work item, in submission order, so concurrently
// produced items can be emitted strictly in that order. The pfpl streaming
// frame pipeline uses it to keep pipelined frame emission byte-identical
// to serial emission. A frame takes milliseconds to compress, so blocking
// on a channel for its turn costs little, where a chunk's worker would
// rather hand its chunk on and take the next.
//
// Usage: the single submitting goroutine calls Link once per item, in
// item order, and gives the returned channels to the worker that produces
// the item. The worker receives from turn (blocks until every earlier
// item has been emitted), emits, then closes done to release the next
// item. The chain carries no payload; ordering is the whole contract.
type Chain struct {
	last chan struct{}
}

// NewChain creates a chain whose first link's turn is immediately ready.
func NewChain() *Chain {
	head := make(chan struct{})
	close(head)
	return &Chain{last: head}
}

// Link appends one item to the chain, returning the channel to wait on
// before emitting (closed when all earlier items have emitted) and the
// channel to close after emitting. Link is not safe for concurrent use:
// call it from the one goroutine that defines the item order.
func (c *Chain) Link() (turn <-chan struct{}, done chan struct{}) {
	turn = c.last
	done = make(chan struct{})
	c.last = done
	return turn, done
}
