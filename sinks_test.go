package tvq_test

import (
	"context"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"tvq"
)

// TestMatchAndDeliverySize pins Match at 64 bytes and Delivery at 80,
// malloc size classes: evaluation copies a fresh Match for every
// (query, state) pair a frame matches, and every sink receives a
// Delivery by value.
func TestMatchAndDeliverySize(t *testing.T) {
	if n := unsafe.Sizeof(tvq.Match{}); n != 64 {
		t.Errorf("Match is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(tvq.Delivery{}); n != 80 {
		t.Errorf("Delivery is %d bytes, want 80", n)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// base (runtime bookkeeping can lag a hair behind channel operations).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines never returned to baseline %d (now %d)\n%s",
		base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestCancelUnblocksFullChanSink pins the cancel path of a blocked
// delivery: a ChanSink with a full buffer parks the session's Process
// inside Deliver; Cancel from another goroutine must unblock it, close
// the channel promptly (no waiting for another processed frame), and
// leak no goroutine. Before the fix the channel only closed on the
// session's next Process call, stranding consumers of an idle session.
func TestCancelUnblocksFullChanSink(t *testing.T) {
	tr := sessionTrace(t)
	base := runtime.NumGoroutine()

	s, err := tvq.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cs := tvq.NewChanSink(1)
	// Window 1, duration 1: every frame with a car matches, so frame 0
	// onward produces one delivery per frame.
	sub, err := s.Subscribe(tvq.MustQuery(0, "car >= 1", 1, 1), tvq.WithSink(cs))
	if err != nil {
		t.Fatal(err)
	}

	// Drive the session with no consumer: frame 0's match fills the
	// 1-slot buffer, frame 1's parks Deliver inside Process. No frames
	// follow, so nothing but Cancel itself can close the channel — the
	// session is idle from here on.
	processed := make(chan error, 1)
	go func() {
		for _, f := range tr.Frames()[:2] {
			if _, err := s.ProcessFrame(f); err != nil {
				processed <- err
				return
			}
		}
		processed <- nil
	}()

	// Wait until the driver is genuinely stuck (buffer full + one more
	// delivery parked), then cancel from this goroutine — the exact
	// situation a consumer that stopped reading and wants out is in.
	deadline := time.Now().Add(5 * time.Second)
	for len(cs.C()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("buffer never filled")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the second Deliver park
	// Cancel itself must not wait on the parked Deliver: a Process that
	// held the session's lock across Deliver would block it for good.
	cancelled := make(chan error, 1)
	go func() { cancelled <- sub.Cancel() }()
	select {
	case err := <-cancelled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel blocked behind a Deliver parked on a full sink")
	}

	select {
	case err := <-processed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Process still blocked after Cancel")
	}

	// The channel must close without any further session activity; a
	// ranging consumer drains the buffered delivery and ends.
	drained := 0
	closed := make(chan struct{})
	go func() {
		for range cs.C() {
			drained++
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("channel never closed after Cancel on an idle session")
	}
	if drained == 0 {
		t.Error("buffered delivery was lost on cancel")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestCancelFromConsumerGoroutine exercises the documented consumer-side
// cancel: the consumer ranges over the sink, cancels mid-stream, and the
// range loop must terminate promptly even though the session keeps
// processing frames.
func TestCancelFromConsumerGoroutine(t *testing.T) {
	tr := sessionTrace(t)
	base := runtime.NumGoroutine()

	s, err := tvq.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cs := tvq.NewChanSink(2)
	sub, err := s.Subscribe(tvq.MustQuery(0, "car >= 1", 1, 1), tvq.WithSink(cs))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan int)
	go func() {
		n := 0
		for range cs.C() {
			n++
			if n == 5 {
				sub.Cancel()
			}
		}
		done <- n
	}()
	// The consumer cancels while Run may be parked delivering to it:
	// Run must still end, and the consumer's loop with it.
	ran := make(chan error, 1)
	go func() {
		_, err := s.Run(tr)
		ran <- err
	}()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked after the consumer cancelled")
	}
	select {
	case n := <-done:
		if n < 5 {
			t.Errorf("consumer saw %d deliveries before close, want at least 5", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer loop never ended after Cancel")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
