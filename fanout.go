package tvq

import (
	"slices"
	"sync"
	"sync/atomic"
)

// FanoutSink fans one subscription's deliveries out to any number of
// concurrently attached consumers ("taps") without ever blocking the
// session's processing path. Each tap owns a bounded buffer; when a
// tap's consumer falls behind, the oldest buffered delivery is dropped
// to make room — counted per tap, never silently — so one stalled
// network subscriber can neither slow ingestion nor starve its peers.
//
// FanoutSink is the serving-layer complement of ChanSink: ChanSink
// backpressures the whole session on its single consumer (loss-free by
// construction), FanoutSink isolates N subscribers from the hot path
// and from each other (loss-bounded by each tap's buffer). The tvqd
// daemon attaches one FanoutSink per subscription and one tap per
// connected stream.
//
// Taps may attach and detach while the session runs. A delivery is
// fanned out only to taps attached at that moment; a tap attached after
// the sink closed receives an already-closed channel.
type FanoutSink struct {
	mu        sync.Mutex
	taps      []*Tap // attached, in attachment order
	closed    bool
	delivered atomic.Uint64
}

// NewFanoutSink builds a fan-out sink with no taps attached. Deliveries
// with no taps attached are counted and discarded.
func NewFanoutSink() *FanoutSink {
	return &FanoutSink{}
}

// Tap is one consumer's bounded view of a FanoutSink's delivery stream.
type Tap struct {
	sink    *FanoutSink
	ch      chan Delivery
	dropped atomic.Uint64
	closed  bool // guarded by sink.mu
}

// Tap attaches a new consumer with the given buffer capacity (minimum
// 1) and returns it. The tap's channel closes when the tap is closed,
// the subscription is cancelled, or the session closes.
func (f *FanoutSink) Tap(buffer int) *Tap {
	if buffer < 1 {
		buffer = 1
	}
	t := &Tap{sink: f, ch: make(chan Delivery, buffer)}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		t.closed = true
		close(t.ch)
		return t
	}
	f.taps = append(f.taps, t)
	return t
}

// Deliver fans d out to every attached tap. It never blocks: a tap
// whose buffer is full loses its oldest buffered delivery instead
// (recorded in the tap's drop counter).
func (f *FanoutSink) Deliver(d Delivery) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.delivered.Add(1)
	for _, t := range f.taps {
		select {
		case t.ch <- d:
			continue
		default:
		}
		// Buffer full: evict the oldest entry, then retry once. The
		// consumer may race us for the eviction (good — then the retry
		// finds room) or drain the buffer entirely between the steps
		// (then the retry just succeeds).
		select {
		case <-t.ch:
			t.dropped.Add(1)
		default:
		}
		select {
		case t.ch <- d:
		default:
			t.dropped.Add(1) // consumer refilled the buffer; drop d itself
		}
	}
	return nil
}

// Delivered reports how many deliveries the sink has fanned out since
// creation (whether or not any tap was attached).
func (f *FanoutSink) Delivered() uint64 { return f.delivered.Load() }

// Taps reports the number of currently attached taps.
func (f *FanoutSink) Taps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.taps)
}

// Close detaches every tap (closing their channels) and drops all
// further deliveries. It is idempotent; sessions call it automatically
// when the owning subscription is cancelled or the session closes.
func (f *FanoutSink) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, t := range f.taps {
		t.closed = true
		close(t.ch)
	}
	f.taps = nil
}

// bind implements sessionBound. Deliver never blocks, so the sink needs
// no cancellation channels; attachment is recorded only so closeSink
// fires on subscription end.
func (f *FanoutSink) bind(subDone, sessionDone <-chan struct{}) {}

// closeSink implements sessionBound.
func (f *FanoutSink) closeSink() { f.Close() }

// C is the tap's delivery channel. It closes when the tap or the sink
// closes; buffered deliveries remain readable until drained.
func (t *Tap) C() <-chan Delivery { return t.ch }

// Dropped reports how many deliveries this tap has lost to a full
// buffer since it was attached.
func (t *Tap) Dropped() uint64 { return t.dropped.Load() }

// Close detaches the tap from its sink and closes its channel. It is
// idempotent and safe to call concurrently with deliveries.
func (t *Tap) Close() {
	f := t.sink
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	i := slices.Index(f.taps, t) // attached: every tap is until it closes
	f.taps = slices.Delete(f.taps, i, i+1)
	close(t.ch)
}
