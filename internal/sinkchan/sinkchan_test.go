package sinkchan

import (
	"testing"
	"time"
)

// TestUnboundCloseWithParkedSend is the regression test for the
// uncounted-send bug once found in ChanSink's unbound delivery path:
// the send skipped the in-flight registration, so a Close racing a
// Send parked on a full buffer saw inflight == 0 and closed the channel
// under the pending send — a send-on-closed-channel panic instead of
// the documented drop. With the fix, the close is deferred to the
// parked sender: the value lands, no panic, and the channel closes
// once the sender returns.
func TestUnboundCloseWithParkedSend(t *testing.T) {
	c := New[int](0) // unbuffered: Send parks until a reader arrives
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Send(7)
	}()

	// Wait for the sender to register in flight, then close. Had the
	// unbound path not registered, the loop would fall through on its
	// deadline and Close would race the parked send. Both take c.mu, so
	// a Send parked while holding it would block them for good: they run
	// apart, under a deadline of their own.
	closed := make(chan struct{})
	go func() {
		deadline := time.Now().Add(time.Second)
		for {
			c.mu.Lock()
			parked := c.inflight == 1
			c.mu.Unlock()
			if parked || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind a Send parked under the lock")
	}

	if v, ok := <-c.C(); !ok || v != 7 {
		t.Fatalf("parked value lost: got (%d, %v), want 7", v, ok)
	}
	if p := <-panicked; p != nil {
		t.Fatalf("Send panicked on close: %v", p)
	}
	if _, ok := <-c.C(); ok {
		t.Fatal("channel still open after the parked send completed")
	}
}

// TestUnboundSendAfterClose pins the documented drop: once closed, Send
// returns without sending or panicking.
func TestUnboundSendAfterClose(t *testing.T) {
	c := New[int](1)
	c.Close()
	c.Send(1)
	if _, ok := <-c.C(); ok {
		t.Fatal("value leaked through a closed channel")
	}
}
