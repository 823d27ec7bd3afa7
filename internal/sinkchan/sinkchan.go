// Package sinkchan is the delivery channel behind tvq.ChanSink: a
// buffered channel whose only send path is the counted Send and whose
// only close path is Close. The raw channel is unexported, so code
// outside this package can receive from it but can neither send on it
// nor close it — an uncounted send racing a close (a send-on-closed-
// channel panic) cannot be written.
package sinkchan

import "sync"

// Chan is a channel that closes safely under parked senders. Send
// blocks while the buffer is full — backpressure, not loss — until one
// of the channels given to Bind closes, at which point the value is
// dropped. Close ends delivery and closes the channel once no Send is
// parked; values sent after Close are dropped.
type Chan[T any] struct {
	ch      chan T
	subDone <-chan struct{}
	sesDone <-chan struct{}

	mu       sync.Mutex
	closed   bool // no further Send may start
	chClosed bool // ch itself has been closed
	inflight int  // Sends currently parked in the send
}

// New builds a channel with the given buffer capacity; a negative
// capacity is treated as zero.
func New[T any](buffer int) *Chan[T] {
	return &Chan[T]{ch: make(chan T, max(buffer, 0))}
}

// C is the receive side; it is closed by Close, after the last parked
// Send returns.
func (c *Chan[T]) C() <-chan T { return c.ch }

// Bind sets the channels whose closing unblocks a parked Send. Call it
// before the first Send; an unbound Chan sends with a plain blocking
// send.
func (c *Chan[T]) Bind(subDone, sesDone <-chan struct{}) {
	c.subDone, c.sesDone = subDone, sesDone
}

// Send delivers v, blocking while the buffer is full.
func (c *Chan[T]) Send(v T) {
	c.mu.Lock()
	if c.closed {
		// Turns misuse (a sink reattached after its subscription ended)
		// into dropped deliveries instead of a send-on-closed panic.
		c.mu.Unlock()
		return
	}
	// Register as in flight before parking in the send: Close may run
	// concurrently (Subscription.Cancel closes the sink from the
	// consumer's goroutine while this Send is blocked on a full buffer)
	// and must not close ch under a pending send. It defers the close
	// to this goroutine instead; the cancel path has already closed
	// subDone, so the select cannot stay parked. The unbound path rides
	// the same accounting, or a Close racing a parked Send would see
	// inflight == 0 and close the channel under the pending send.
	c.inflight++
	c.mu.Unlock()
	if c.subDone == nil {
		c.ch <- v
	} else {
		select {
		case c.ch <- v:
		case <-c.subDone:
		case <-c.sesDone:
		}
	}
	c.mu.Lock()
	c.inflight--
	c.closeIfIdleLocked()
	c.mu.Unlock()
}

// Close ends delivery and closes the channel — immediately when no
// Send is parked, otherwise as soon as the last parked Send returns
// (the caller is expected to have closed a Bind channel first, so a
// bound Send cannot stay parked). Idempotent and safe from any
// goroutine.
func (c *Chan[T]) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.closeIfIdleLocked()
}

// closeIfIdleLocked (mu held) closes ch once Close has been called and
// no Send is parked.
func (c *Chan[T]) closeIfIdleLocked() {
	if c.closed && c.inflight == 0 && !c.chClosed {
		c.chClosed = true
		close(c.ch)
	}
}
