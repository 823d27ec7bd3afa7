package tvq

import (
	"fmt"
	"math/rand"

	"tvq/internal/reorder"
	"tvq/internal/vr"
)

// Event-time robustness: the public face of the bounded out-of-order
// ingest stage (internal/reorder). A session opened with
// WithDisorderBound(k) accepts frames displaced by up to k positions
// from frame-id order, reassembles them, and feeds the engines the
// exact in-order stream — query answers are identical to an in-order
// run. Frames the bound cannot absorb hit the late-frame policy.

// LatePolicy selects what happens to frames the disorder bound cannot
// absorb; see LateDrop and LateError.
type LatePolicy = reorder.Policy

const (
	// LateDrop (the default) discards late frames and synthesizes
	// empty frames for gaps that can no longer fill within bound,
	// counting both in Session.LateFrames — the stream keeps flowing.
	LateDrop LatePolicy = reorder.Drop
	// LateError fails Process with an error wrapping ErrLateFrame
	// instead: no frame is ever silently dropped or fabricated.
	LateError LatePolicy = reorder.Error
)

// ParseLatePolicy parses the CLI/JSON spelling ("drop" or "error").
func ParseLatePolicy(s string) (LatePolicy, error) { return reorder.ParsePolicy(s) }

// LateFrameError is the typed payload behind ErrLateFrame: the late
// frame's id, the feed's watermark at rejection, and whether the frame
// was a duplicate or an overdue gap. Retrieve it with errors.As.
type LateFrameError = reorder.LateFrameError

// DisorderedError is the typed payload behind ErrDisordered: the
// frame-id pair whose order the strict trace readers rejected.
type DisorderedError = vr.DisorderedError

// BoundedShuffle returns the frames in a seeded pseudo-random order in
// which no frame is displaced more than bound positions — input a
// session with the same WithDisorderBound reassembles exactly, with no
// frame falling late. It generates disorder test scenarios and backs
// tvqgen -disorder.
func BoundedShuffle(frames []Frame, bound int, seed int64) []Frame {
	return reorder.Shuffle(frames, bound, rand.New(rand.NewSource(seed)))
}

// Disordered reports whether the session runs the reorder stage
// (opened or resumed with WithDisorderBound).
func (s *Session) Disordered() bool { return s.reorder != nil }

// DisorderBound returns the maximum frame displacement the session
// absorbs; zero when the session is strict (no reorder stage, or
// WithDisorderBound(0)).
func (s *Session) DisorderBound() int { return s.cfg.disorder }

// LatePolicy returns the session's late-frame policy (LateDrop unless
// configured otherwise).
func (s *Session) LatePolicy() LatePolicy { return s.cfg.late }

// LateFrames counts the frames the late policy consumed across all
// feeds: late arrivals, duplicates of buffered frames, and synthesized
// gap fills. It is the session-level ground truth behind the daemon's
// tvq_late_frames_total metric.
func (s *Session) LateFrames() uint64 {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	var n uint64
	for _, b := range s.reorder {
		n += b.LateCount()
	}
	return n
}

// ReorderDepth returns the frames currently held back by the reorder
// stage across all feeds — 0 on a strict session, at most
// feeds × bound otherwise.
func (s *Session) ReorderDepth() int {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	var n int
	for _, b := range s.reorder {
		n += b.Depth()
	}
	return n
}

// Watermark returns the feed's event-time watermark: the highest frame
// id for which every frame at or below it has been resolved (processed
// by the engines, or consumed by the late policy). A frame arriving at
// or below the watermark is late. On a strict session it is simply
// NextFID-1.
func (s *Session) Watermark(feed FeedID) FrameID {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	if b := s.reorder[feed]; b != nil {
		return b.Watermark()
	}
	return s.proc.NextFID(feed) - 1
}

// reorderLocked (procMu held) routes one arrival batch through the
// per-feed reorder buffers and appends the released frames — the
// in-order stream the processor dispatches — to out. Buffers are created
// lazily per feed, starting at the processor's cursor. A LateError-policy
// rejection returns the frames released before it (they left the
// buffers and must still reach the engines) together with the error.
func (s *Session) reorderLocked(frames []FeedFrame, out []FeedFrame) ([]FeedFrame, error) {
	for _, ff := range frames {
		b := s.reorder[ff.Feed]
		if b == nil {
			b = reorder.New(s.cfg.disorder, s.cfg.late, s.proc.NextFID(ff.Feed))
			s.reorder[ff.Feed] = b
		}
		released, err := b.Push(ff.Frame, s.pushed[:0])
		for _, f := range released {
			out = append(out, FeedFrame{Feed: ff.Feed, Frame: f})
		}
		clear(released)
		s.pushed = released[:0] // keep grown capacity for the next push
		if err != nil {
			return out, fmt.Errorf("tvq: feed %d: %w", ff.Feed, err)
		}
	}
	return out, nil
}
