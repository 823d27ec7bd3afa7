package tvq

import (
	"context"
	"errors"
	"io"
	"iter"
)

// Range-over-func streaming: the session's pull-based front-end. Where
// the v1 API exposed channels (Engine.Stream, Pool.Stream), the v2
// session yields (frame, matches) pairs directly into a for-range loop,
// with cancellation from the caller's context and natural backpressure
// — the next batch is not processed until the loop body returns.

// Stream processes frames pulled from src through feed 0 and yields
// every frame that produced at least one match, in feed order:
//
//	for frame, matches := range s.Stream(ctx, tvq.TraceFrames(trace)) {
//		...
//	}
//
// Frames are gathered into batches of up to WithBatch (default 64)
// before dispatch, so pooled sessions amortize their per-dispatch
// synchronization exactly as Run does; use WithBatch(1) when a live
// source needs per-frame latency. The iteration ends when src is
// exhausted, ctx is cancelled, the session closes, or the loop breaks
// (frames of the batch in flight are already processed — the cursor
// does not rewind). A processing error ends the iteration and is
// reported by Session.Err. Subscribed queries' matches are delivered
// to their sinks as a side effect, exactly as with Process; Subscribe
// and Cancel may be called from the loop body and take effect from the
// next batch on.
func (s *Session) Stream(ctx context.Context, src iter.Seq[Frame]) iter.Seq2[Frame, []Match] {
	return func(yield func(Frame, []Match) bool) {
		s.stream(ctx, func(y func(FeedFrame, []Match) bool) {
			for f := range src {
				if !y(FeedFrame{Frame: f}, nil) {
					return
				}
			}
		}, func(ff FeedFrame, ms []Match) bool { return yield(ff.Frame, ms) })
	}
}

// StreamFeeds is Stream for multi-feed input: frames carry their feed
// id, and every frame that produced matches is yielded with them, in
// ingestion order. Use it with a pooled ShardByFeed session to fan a
// bank of cameras across workers.
func (s *Session) StreamFeeds(ctx context.Context, src iter.Seq[FeedFrame]) iter.Seq2[FeedFrame, []Match] {
	return func(yield func(FeedFrame, []Match) bool) {
		s.stream(ctx, func(y func(FeedFrame, []Match) bool) {
			for ff := range src {
				if !y(ff, nil) {
					return
				}
			}
		}, yield)
	}
}

// stream is the shared batching loop: pull frames from src, dispatch
// them in batches of batchSize, and yield each matching frame. The
// pull callback receives frames via y (matches unused); results flow
// out through yield.
func (s *Session) stream(ctx context.Context, src func(func(FeedFrame, []Match) bool), yield func(FeedFrame, []Match) bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	size := s.batchSize()
	batch := make([]FeedFrame, 0, size)
	var released []FeedFrame // a disordered session's dispatched frames
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		// Hand the filled slice off and reset batch first, so an early
		// exit from a yield cannot leave processed frames behind for a
		// final flush to dispatch twice.
		processed := batch
		batch = batch[:0]
		dispatched, results, err := s.processDispatched(processed, &released)
		// Yield whatever the batch produced even when err != nil (e.g. a
		// failed cadence checkpoint): the frames were processed and the
		// sinks saw the matches, so hiding them from the iterator would
		// lose them for good. The error still ends the iteration below.
		// Results are an ingestion-order subset of the *dispatched*
		// frames — identical to the batch on a strict session, the
		// reorder stage's in-order releases on a disordered one — so
		// walk those with two cursors to recover each result's frame.
		bi := 0
		for _, r := range results {
			for dispatched[bi].Feed != r.Feed || dispatched[bi].Frame.FID != r.FID {
				bi++
			}
			if !yield(dispatched[bi], r.Matches) {
				return false
			}
		}
		if err != nil {
			if !errors.Is(err, ErrSessionClosed) {
				s.setErr(err)
			}
			return false
		}
		return true
	}
	src(func(ff FeedFrame, _ []Match) bool {
		if ctx.Err() != nil {
			return false
		}
		batch = append(batch, ff)
		if len(batch) >= size {
			return flush()
		}
		return true
	})
	if ctx.Err() == nil {
		flush()
	}
}

// TraceFrames adapts a materialized trace to a frame source for
// Stream.
func TraceFrames(t *Trace) iter.Seq[Frame] {
	return func(yield func(Frame) bool) {
		for _, f := range t.Frames() {
			if !yield(f) {
				return
			}
		}
	}
}

// DecodeFrames streams frames decoded from r by the given codec: each
// decoded frame is yielded with a nil error, a clean end of stream ends
// the sequence, and a decode failure yields exactly one (zero frame,
// error) pair before ending it. Unlike ReadTraceJSONL/ReadTraceBinary
// it never materializes the trace, so arbitrarily long inputs process
// in constant memory — the path behind cmd/tvq -stream. Frames decoded
// by the binary codec arrive with Owned set, so a session retains them
// without cloning; see Frame.Owned.
func DecodeFrames(r io.Reader, c Codec, reg *Registry) iter.Seq2[Frame, error] {
	return func(yield func(Frame, error) bool) {
		fr := c.NewFrameReader(r, reg)
		for {
			f, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				yield(Frame{}, err)
				return
			}
			if !yield(f, nil) {
				return
			}
		}
	}
}

// ChanFrames adapts a live frame channel to a frame source for Stream;
// the sequence ends when the channel closes.
func ChanFrames(ch <-chan Frame) iter.Seq[Frame] {
	return func(yield func(Frame) bool) {
		for f := range ch {
			if !yield(f) {
				return
			}
		}
	}
}

// Multiplex interleaves one trace per feed into a single FeedFrame
// source, round-robin by frame index — the arrival order of a fair
// multi-camera capture loop. Feed i is traces[i]; shorter traces simply
// finish earlier.
func Multiplex(traces ...*Trace) iter.Seq[FeedFrame] {
	return func(yield func(FeedFrame) bool) {
		maxLen := 0
		for _, t := range traces {
			if t.Len() > maxLen {
				maxLen = t.Len()
			}
		}
		for fi := 0; fi < maxLen; fi++ {
			for feed, t := range traces {
				if fi >= t.Len() {
					continue
				}
				if !yield(FeedFrame{Feed: FeedID(feed), Frame: t.Frame(fi)}) {
					return
				}
			}
		}
	}
}
