// Package a is the lockorder fixture: delivery-under-lock shapes
// modeled on session.deliverLocked and the sink fan-out paths.
package a

import "sync"

type delivery struct{ v int }

type sink struct{}

func (sink) Deliver(d delivery) error { return nil }

type hub struct {
	mu    sync.Mutex
	state sync.RWMutex
	sinks []sink
	ch    chan delivery
}

// Red case 1 — Deliver under the hub mutex: a consumer blocked in
// Deliver holds up every Process and the Cancel that would free it.
func (h *hub) broadcast(d delivery) {
	h.mu.Lock()
	for _, s := range h.sinks {
		_ = s.Deliver(d) // want `Deliver called while holding h.mu`
	}
	h.mu.Unlock()
}

// Red case 2 — a bare channel send while holding the lock.
func (h *hub) push(d delivery) {
	h.mu.Lock()
	h.ch <- d // want `channel send while holding h.mu`
	h.mu.Unlock()
}

// Red case 3 — a select without a default still blocks.
func (h *hub) pushSelect(d delivery, done chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.ch <- d: // want `blocking select send while holding h.mu`
	case <-done:
	}
}

// Red case 4 — defer keeps the read lock held through the Deliver.
func (h *hub) deliverDeferred(d delivery) error {
	h.state.RLock()
	defer h.state.RUnlock()
	return h.sinks[0].Deliver(d) // want `Deliver called while holding h.state`
}

// Clean: the sanctioned idiom — snapshot under the lock, unlock, then
// deliver (session.deliverLocked).
func (h *hub) deliverSnapshot(d delivery) {
	h.mu.Lock()
	targets := append([]sink(nil), h.sinks...)
	h.mu.Unlock()
	for _, s := range targets {
		_ = s.Deliver(d)
	}
}

// Clean: a non-blocking send under the lock is deliberate fan-out
// policy (drop when the consumer lags), and cannot deadlock.
func (h *hub) tryPush(d delivery) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.ch <- d:
		return true
	default:
		return false
	}
}

// Clean: closing a channel under the lock does not block
// (sinkchan.Chan.Close does exactly this).
func (h *hub) shutdown() {
	h.mu.Lock()
	defer h.mu.Unlock()
	close(h.ch)
}

// Clean: the goroutine body runs without this frame's locks.
func (h *hub) spawn(d delivery) {
	h.mu.Lock()
	defer h.mu.Unlock()
	go func() {
		h.ch <- d
	}()
}

// Clean: a deliberate send under lock, suppressed with a reason.
func (h *hub) primed(d delivery) {
	h.mu.Lock()
	//lint:ignore lockorder buffer is sized for one element and empty here
	h.ch <- d
	h.mu.Unlock()
}
