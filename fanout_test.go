package tvq_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tvq"
)

func TestFanoutSinkBroadcast(t *testing.T) {
	fs := tvq.NewFanoutSink()
	a, b := fs.Tap(16), fs.Tap(16)
	for i := 0; i < 10; i++ {
		if err := fs.Deliver(tvq.Delivery{FID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fs.Close()
	for name, tap := range map[string]*tvq.Tap{"a": a, "b": b} {
		var got []int64
		for d := range tap.C() {
			got = append(got, d.FID)
		}
		if fmt.Sprint(got) != fmt.Sprint([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Errorf("tap %s saw %v", name, got)
		}
		if tap.Dropped() != 0 {
			t.Errorf("tap %s dropped %d with ample buffer", name, tap.Dropped())
		}
	}
	if fs.Delivered() != 10 {
		t.Errorf("Delivered = %d, want 10", fs.Delivered())
	}
}

// TestFanoutSinkDropOldest pins the overflow policy: a tap that stops
// reading loses the oldest deliveries, keeps the newest, and counts the
// losses — and Deliver never blocks while doing so.
func TestFanoutSinkDropOldest(t *testing.T) {
	fs := tvq.NewFanoutSink()
	tap := fs.Tap(3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			fs.Deliver(tvq.Delivery{FID: int64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver blocked on a full tap")
	}
	fs.Close()
	var got []int64
	for d := range tap.C() {
		got = append(got, d.FID)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int64{7, 8, 9}) {
		t.Errorf("tap kept %v, want the newest three", got)
	}
	if tap.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", tap.Dropped())
	}
}

func TestFanoutSinkTapLifecycle(t *testing.T) {
	fs := tvq.NewFanoutSink()
	a := fs.Tap(4)
	fs.Deliver(tvq.Delivery{FID: 1})
	a.Close()
	a.Close() // idempotent
	fs.Deliver(tvq.Delivery{FID: 2})
	var got []int64
	for d := range a.C() {
		got = append(got, d.FID)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int64{1}) {
		t.Errorf("closed tap saw %v, want just the pre-close delivery", got)
	}
	if n := fs.Taps(); n != 0 {
		t.Errorf("Taps = %d after close, want 0", n)
	}

	fs.Close()
	late := fs.Tap(4)
	if _, ok := <-late.C(); ok {
		t.Error("tap attached after Close received a delivery")
	}
}

// TestFanoutSinkConcurrent hammers attach/detach/deliver/consume from
// many goroutines; run under -race this is the concurrency contract.
func TestFanoutSinkConcurrent(t *testing.T) {
	fs := tvq.NewFanoutSink()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tap := fs.Tap(2)
				for j := 0; j < 10; j++ {
					select {
					case <-tap.C():
					default:
					}
				}
				tap.Close()
			}
		}()
	}
	// Taps close while deliveries run: a Deliver that blocked on a full
	// tap under the sink's lock would keep Close from taking it.
	delivered := make(chan struct{})
	go func() {
		for i := 0; i < 2000; i++ {
			fs.Deliver(tvq.Delivery{FID: int64(i)})
		}
		close(delivered)
	}()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("Deliver blocked while taps came and went")
	}
	close(stop)
	wg.Wait()
	fs.Close()
	fs.Deliver(tvq.Delivery{FID: -1}) // dropped, not panicking
}

// TestFanoutSinkOnSession wires a FanoutSink into a live subscription:
// two taps see the same matches the session reports, and cancelling the
// subscription closes both taps without another processed frame.
func TestFanoutSinkOnSession(t *testing.T) {
	tr := sessionTrace(t)
	s, err := tvq.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fs := tvq.NewFanoutSink()
	sub, err := s.Subscribe(tvq.MustQuery(0, "car >= 1 AND person >= 2", 10, 5), tvq.WithSink(fs))
	if err != nil {
		t.Fatal(err)
	}
	a, b := fs.Tap(256), fs.Tap(256)

	want := 0
	for _, f := range tr.Frames()[:50] {
		ms, err := s.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want += len(ms)
	}
	if want == 0 {
		t.Fatal("no matches; test is vacuous")
	}
	sub.Cancel() // session stays idle: taps must still close promptly

	for name, tap := range map[string]*tvq.Tap{"a": a, "b": b} {
		n := 0
		timeout := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, ok := <-tap.C():
				if !ok {
					open = false
				} else {
					n++
				}
			case <-timeout:
				t.Fatalf("tap %s never closed after Cancel", name)
			}
		}
		if n != want {
			t.Errorf("tap %s saw %d deliveries, session reported %d matches", name, n, want)
		}
	}
}
