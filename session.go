package tvq

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tvq/internal/engine"
	"tvq/internal/reorder"
	"tvq/internal/snapshot"
)

// Session payload kinds in the snapshot container; engine and pool
// payloads keep their own kinds, so a bare engine or pool snapshot file
// remains readable.
// "session2" extends "session" with the reorder stage's state (bound,
// policy, per-feed watermarks and buffered frames) and is written only
// by disordered sessions, so snapshots of strict sessions stay
// readable by older builds.
const (
	payloadSession   = "session"
	payloadSessionV2 = "session2"
)

// Session is the entry point: one long-running query-serving surface
// over a video feed (or a bank of feeds), backed by either a single
// engine or a parallel pool — internal/engine makes the choice at Open
// from WithWorkers/WithShardMode, and the session itself never learns
// which it holds.
//
// A Session implements the unified processor contract — Process, Run,
// Stream, Snapshot, Close — and adds dynamic, per-caller query
// registration: Subscribe attaches a query (and optionally a Sink that
// receives its matches) while frames are flowing, Subscription.Cancel
// detaches it. Matches of subscribed queries are delivered to their
// sinks and still appear in Process/Run/Stream results alongside the
// Open-time queries' matches. Each query's own match stream is
// identical across execution shapes; after dynamic registration the
// relative order of *different* queries' matches within one frame may
// differ between single-engine and pooled sessions.
//
// Methods that touch frames (Process, ProcessFrame, Run, Stream,
// Snapshot, Subscribe, Cancel) follow the engine's single-caller
// discipline: invoke them from one goroutine. Sink consumers (e.g.
// ranging over a ChanSink) run concurrently by design, and Close may
// be called from any other goroutine — cancelling the context passed
// to Open closes the session (see Close for the one restriction).
type Session struct {
	cfg    config
	proc   engine.Processor
	ck     checkpointer
	cancel func() bool // stops the context watcher

	// reorder holds the per-feed bounded out-of-order buffers; nil on a
	// strict session (no WithDisorderBound). Guarded by procMu, like the
	// processor it feeds.
	reorder map[FeedID]*reorder.Buffer

	// procMu serializes processing, registration, snapshots and
	// teardown — everything that touches the processor.
	procMu sync.Mutex

	// one is ProcessFrame's batch, filled and cleared under procMu.
	// Nothing downstream keeps a batch slice past the call: the reorder
	// stage copies the frames it buffers, and a pool drops its
	// references to the batch before it returns.
	one [1]FeedFrame

	// released and pushed are the reorder stage's buffers (see
	// reorderLocked), kept for the next batch under procMu: released
	// collects the frames a batch dispatches when the caller does not
	// read them after the call, pushed takes one buffer's releases.
	released []FeedFrame
	pushed   []Frame

	// mu guards the subscription table and lifecycle flags; it is
	// never held across a Deliver call, so sink consumers can cancel
	// subscriptions without deadlocking a blocked delivery.
	mu      sync.Mutex
	subs    map[int]*Subscription
	pending []*Subscription // cancelled, awaiting removal from proc
	done    chan struct{}   // closed when the session closes
	closed  bool
	err     error

	// subGen counts changes to which sink a query id delivers to
	// (Subscribe, Cancel, Attach, Resume); it is bumped under mu and
	// read without it. routes is the delivery path's copy of that
	// mapping — query id → sink, live subscriptions with a sink only —
	// as of generation routeGen; both are guarded by procMu. Delivery
	// checks the counter before every match and re-reads the table under
	// mu only when it moved, so a Cancel or Attach still takes effect
	// between two matches of one batch without a lock per match.
	subGen   atomic.Uint64
	routes   map[int]Sink
	routeGen uint64

	// snap is the writer every snapshot is framed in; its buffer, as
	// large as the largest snapshot so far, is kept for the next one.
	// Guarded by procMu.
	snap snapshot.Writer
}

// Open builds a session. The zero configuration — tvq.Open(ctx) — is a
// single-engine SSG session over the standard registry with no queries
// yet, ready to serve Subscribe calls; options select the strategy,
// registry, parallelism and checkpointing:
//
//	s, err := tvq.Open(ctx,
//		tvq.WithQueries(q1, q2),
//		tvq.WithMethod(tvq.MethodMFS),
//		tvq.WithWorkers(4), tvq.WithShardMode(tvq.ShardByFeed),
//		tvq.WithCheckpoint("run.tvqsnap", tvq.EveryFrames(500)),
//	)
//
// Cancelling ctx closes the session (a nil ctx means Background).
// Close it explicitly when done; a pooled session owns goroutines.
func Open(ctx context.Context, opts ...Option) (*Session, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.lateSet && !cfg.disorderSet {
		return nil, fmt.Errorf("tvq: WithLatePolicy requires WithDisorderBound")
	}
	assignQueryIDs(cfg.queries)

	s := &Session{cfg: cfg, subs: make(map[int]*Subscription), done: make(chan struct{})}
	if cfg.disorderSet {
		s.reorder = make(map[FeedID]*reorder.Buffer)
	}
	if s.proc, err = engine.Open(cfg.queries, cfg.proc); err != nil {
		return nil, err
	}
	s.initCheckpointer()
	s.watchContext(ctx)
	return s, nil
}

// assignQueryIDs gives every zero-ID query the next free positive id.
func assignQueryIDs(queries []Query) {
	next := 1
	used := make(map[int]bool, len(queries))
	for _, q := range queries {
		used[q.ID] = true
	}
	for i := range queries {
		if queries[i].ID != 0 {
			continue
		}
		for used[next] {
			next++
		}
		queries[i].ID = next
		used[next] = true
	}
}

func (s *Session) initCheckpointer() {
	s.ck = checkpointer{path: s.cfg.ckPath, every: s.cfg.ckEvery, last: time.Now()}
}

func (s *Session) watchContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.cancel = context.AfterFunc(ctx, func() { _ = s.Close() })
}

// Process runs one batch of frames through the session and returns the
// frames that produced at least one match, in ingestion order. Matches
// of subscribed queries are additionally delivered to their sinks
// before Process returns. Each feed's frames carry consecutive ids;
// only a ShardByFeed session accepts feeds other than 0 (see MultiFeed),
// every other shape returns an error for them.
func (s *Session) Process(frames []FeedFrame) ([]FeedResult, error) {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	_, results, err := s.processLocked(frames, &s.released)
	clear(s.released) // pin no frame past the call
	return results, err
}

// processDispatched is Process returning also the frames actually
// dispatched to the engines this call: the input on a strict session,
// the reorder stage's in-order releases on a disordered one. Stream
// uses it to map results back to frames when arrival order and
// processing order differ; it reads them after procMu is released, so
// a disordered session collects them in the caller's *released, not in
// the session's.
func (s *Session) processDispatched(frames []FeedFrame, released *[]FeedFrame) ([]FeedFrame, []FeedResult, error) {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return s.processLocked(frames, released)
}

// processLocked (procMu held) runs one batch. A disordered session
// collects the frames its reorder stage releases in *released, whose
// grown storage is kept there for the next batch; the returned
// dispatched frames alias it.
func (s *Session) processLocked(frames []FeedFrame, released *[]FeedFrame) ([]FeedFrame, []FeedResult, error) {
	if s.isClosed() {
		return nil, nil, ErrSessionClosed
	}
	if !s.proc.MultiFeed() {
		for _, ff := range frames {
			if ff.Feed != 0 {
				return nil, nil, fmt.Errorf("tvq: session serves feed 0 only, got feed %d; open with WithShardMode(ShardByFeed) for multi-feed input", ff.Feed)
			}
		}
	}
	s.applyPendingLocked()
	dispatched := frames
	var lateErr error
	if s.reorder != nil {
		// The reorder stage may hold frames back, release buffered ones,
		// or — under LateError — refuse one mid-batch. Frames it released
		// before the refusal have left the buffers and must still reach
		// the engines, so processing proceeds on the releases and the
		// error is reported after delivery.
		dispatched, lateErr = s.reorderLocked(frames, (*released)[:0])
		*released = dispatched
	}
	results := s.proc.Process(dispatched)
	if err := s.deliverLocked(results); err != nil {
		s.setErr(err)
		return dispatched, results, err
	}
	if lateErr != nil {
		return dispatched, results, lateErr
	}
	// Cadence counts arrivals, not dispatches: a disordered session must
	// checkpoint on schedule even while frames sit in the buffers —
	// that mid-reassembly state is precisely what the v2 snapshot exists
	// to preserve.
	if s.ck.due(len(frames)) {
		if err := s.ck.write(s.snapshotLocked); err != nil {
			s.setErr(err)
			return dispatched, results, err
		}
	}
	return dispatched, results, nil
}

// ProcessFrame is Process for a single frame of feed 0, returning just
// its matches.
func (s *Session) ProcessFrame(f Frame) ([]Match, error) {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	s.one[0] = FeedFrame{Frame: f}
	_, results, err := s.processLocked(s.one[:], &s.released)
	s.one[0] = FeedFrame{} // the frame's storage is the caller's again
	clear(s.released)
	if len(results) > 0 {
		return results[0].Matches, err
	}
	return nil, err
}

// applyPendingLocked (procMu held) completes cancellations queued by
// Subscription.Cancel: the queries leave the processor before the next
// frame is evaluated, and channel sinks are closed now that no delivery
// can be in flight.
func (s *Session) applyPendingLocked() {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, sub := range pending {
		_, _ = s.proc.RemoveQuery(sub.q.ID)
		endSink(sub.sink)
	}
}

// deliverLocked (procMu held) routes each match of a subscribed query
// to its sink.
func (s *Session) deliverLocked(results []FeedResult) error {
	for _, r := range results {
		for _, m := range r.Matches {
			if gen := s.subGen.Load(); gen != s.routeGen {
				s.resolveRoutesLocked(gen)
			}
			sink := s.routes[m.QueryID]
			if sink == nil {
				continue
			}
			if err := sink.Deliver(Delivery{Feed: r.Feed, FID: r.FID, Match: m}); err != nil {
				return fmt.Errorf("tvq: subscription %d sink: %w", m.QueryID, err)
			}
		}
	}
	return nil
}

// resolveRoutesLocked (procMu held) rebuilds the delivery path's sink
// table from the subscription table. gen was read before taking mu, so
// a change racing the rebuild leaves routeGen behind the counter and
// the next match resolves again.
func (s *Session) resolveRoutesLocked(gen uint64) {
	if s.routes == nil {
		s.routes = make(map[int]Sink)
	}
	clear(s.routes)
	s.mu.Lock()
	for id, sub := range s.subs {
		if sub.sink != nil {
			s.routes[id] = sub.sink
		}
	}
	s.mu.Unlock()
	s.routeGen = gen
}

// Run processes the remainder of the trace — frames from the session's
// cursor (zero on a fresh session, the resume point after Resume) to
// the end — through feed 0 and returns the frames that produced
// matches. Pooled ShardByFeed sessions use Process with explicit feed
// ids instead for multi-feed input.
func (s *Session) Run(t *Trace) ([]FrameResult, error) {
	start := s.NextFID(0)
	if start > int64(t.Len()) {
		return nil, fmt.Errorf("tvq: session has processed %d frames but the trace has only %d: %w",
			start, t.Len(), ErrSnapshotMismatch)
	}
	frames := t.Frames()[start:]
	batch := s.batchSize()
	var out []FrameResult
	for i := 0; i < len(frames); i += batch {
		end := min(i+batch, len(frames))
		ffs := make([]FeedFrame, 0, end-i)
		for _, f := range frames[i:end] {
			ffs = append(ffs, FeedFrame{Frame: f})
		}
		results, err := s.Process(ffs)
		for _, r := range results {
			out = append(out, FrameResult{FID: r.FID, Matches: r.Matches})
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (s *Session) batchSize() int {
	if s.cfg.batch > 0 {
		return s.cfg.batch
	}
	return engine.DefaultBatch
}

// Subscribe registers a query on the live session and returns its
// subscription. The query's matches start with the next processed
// frame — joining an existing window group it shares that group's
// history, opening a new window size it starts fresh (see
// Engine.AddQuery) — and are delivered to the subscription's sink, if
// one was attached with WithSink, as well as returned from
// Process/Run/Stream. A zero q.ID is assigned the next free positive
// id. Subscribe fails with ErrDuplicateQuery for a taken id and with
// ErrPruningIncompatible under WithPruning.
func (s *Session) Subscribe(q Query, opts ...SubOption) (*Subscription, error) {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	if s.isClosed() {
		return nil, ErrSessionClosed
	}
	s.applyPendingLocked()

	var sc subConfig
	for _, o := range opts {
		if o != nil {
			o(&sc)
		}
	}
	if q.ID == 0 {
		q.ID = s.nextQueryID()
	}
	if err := s.proc.AddQuery(q); err != nil {
		return nil, err
	}
	sub := &Subscription{s: s, q: q, sink: sc.sink, done: make(chan struct{})}
	s.bindSink(sub, sc.sink)
	s.mu.Lock()
	s.subs[q.ID] = sub
	s.subGen.Add(1)
	s.mu.Unlock()
	return sub, nil
}

// nextQueryID picks the smallest positive id not in use (procMu held).
func (s *Session) nextQueryID() int {
	used := make(map[int]bool)
	for _, q := range s.proc.Queries() {
		used[q.ID] = true
	}
	id := 1
	for used[id] {
		id++
	}
	return id
}

// Subscriptions returns the live subscriptions, ordered by query id.
// After Resume it lists the subscriptions recorded in the snapshot.
func (s *Session) Subscriptions() []*Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		out = append(out, sub)
	}
	slices.SortFunc(out, func(a, b *Subscription) int { return cmp.Compare(a.q.ID, b.q.ID) })
	return out
}

// SubOption configures one subscription.
type SubOption func(*subConfig)

type subConfig struct {
	sink Sink
}

// WithSink attaches a delivery sink to the subscription: a SinkFunc
// callback, a ChanSink channel, a JSONLSink writer, or any custom Sink.
func WithSink(sink Sink) SubOption {
	return func(sc *subConfig) { sc.sink = sink }
}

// Subscription is one dynamically registered query on a session.
type Subscription struct {
	s    *Session
	q    Query
	sink Sink
	done chan struct{}

	cancelled bool // guarded by s.mu
}

// Query returns the subscribed query (with its assigned ID).
func (sub *Subscription) Query() Query { return sub.q }

// ID returns the subscription's query id.
func (sub *Subscription) ID() int { return sub.q.ID }

// Cancel detaches the subscription: deliveries to its sink stop
// immediately, the sink's channel (if any) is closed promptly — a
// consumer ranging over a ChanSink unblocks without waiting for the
// session to process another frame — and the query stops being
// evaluated before the next processed frame. Cancel is safe to call
// from a sink consumer goroutine, even while a delivery to this very
// sink is blocked on a full channel (the delivery is dropped, not
// deadlocked), and is idempotent. Cancellation is always sound,
// including under pruning.
func (sub *Subscription) Cancel() error {
	s := sub.s
	s.mu.Lock()
	if sub.cancelled || s.closed {
		s.mu.Unlock()
		return nil
	}
	sub.cancelled = true
	close(sub.done)
	delete(s.subs, sub.q.ID)
	s.subGen.Add(1)
	s.pending = append(s.pending, sub)
	sink := sub.sink
	s.mu.Unlock()
	// Close the sink outside s.mu: ChanSink.closeSink may hand the close
	// to a Deliver currently parked on the full channel, and that
	// Deliver's caller (deliverLocked) takes s.mu before its next match
	// to pick up this very cancellation.
	// sub.done is already closed, so a parked Deliver cannot stay
	// parked. applyPendingLocked's later closeSink is a no-op.
	endSink(sink)
	return nil
}

// Attach sets the subscription's sink — how a Resume caller reconnects
// delivery for a restored subscription when WithSubscriptionSinks was
// not used. Attach replaces any previous sink; it does not close it.
// Attaching to a cancelled subscription or a closed session closes the
// new sink's channel (if any) at once, so a consumer ranging over it
// ends instead of waiting for deliveries that will never come.
func (sub *Subscription) Attach(sink Sink) {
	s := sub.s
	s.mu.Lock()
	if sub.cancelled || s.closed {
		s.mu.Unlock()
		endSink(sink) // outside s.mu, as in Cancel
		return
	}
	s.bindSink(sub, sink)
	sub.sink = sink
	s.subGen.Add(1)
	s.mu.Unlock()
}

// bindSink wires a session-bound sink into sub's lifecycle; other sinks
// need no wiring.
func (s *Session) bindSink(sub *Subscription, sink Sink) {
	if b, ok := sink.(sessionBound); ok {
		b.bind(sub.done, s.done)
	}
}

// endSink closes a session-bound sink; other sinks have nothing to
// close.
func endSink(sink Sink) {
	if b, ok := sink.(sessionBound); ok {
		b.closeSink()
	}
}

// Snapshot serializes the complete session state — processor, queries
// (including subscribed ones) and the set of live subscriptions — as a
// versioned, checksummed stream. Resume restores it; sinks are
// reattached by the caller (they hold live resources and cannot be
// serialized). Like Process, call it from the session's goroutine.
func (s *Session) Snapshot(w io.Writer) error {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	if s.isClosed() {
		return ErrSessionClosed
	}
	s.applyPendingLocked()
	return s.snapshotLocked(w)
}

// snapshotLocked writes the session's snapshot file to w. Both
// containers, the session's and the processor's inside it, are framed
// in place in the session's one writer, which keeps its buffer for the
// next snapshot; w receives the file in one Write.
func (s *Session) snapshotLocked(w io.Writer) error {
	sw := &s.snap
	sw.Reset()
	outer := sw.Begin()
	kind := payloadSession
	if s.reorder != nil {
		kind = payloadSessionV2
	}
	sw.String(kind)
	if err := s.bodyLocked().encode(sw, s.proc); err != nil {
		return err
	}
	sw.End(outer)
	if _, err := w.Write(sw.Bytes()); err != nil {
		return fmt.Errorf("tvq: snapshot: write: %w", err)
	}
	return nil
}

// bodyLocked collects the session's persistent state other than the
// processor into the sessionBody shape the decoder produces, so the
// codec is a symmetric pair over one struct.
func (s *Session) bodyLocked() sessionBody {
	var body sessionBody
	s.mu.Lock()
	for id := range s.subs {
		body.subIDs = append(body.subIDs, id)
	}
	s.mu.Unlock()
	slices.Sort(body.subIDs)
	if s.reorder != nil {
		body.disordered = true
		body.bound = s.cfg.disorder
		body.late = s.cfg.late
		body.buffers = s.reorder
	}
	return body
}

// encode writes the body after the kind tag, with proc's snapshot as
// the embedded processor container; the layout must mirror
// decodeSessionBody exactly.
func (body sessionBody) encode(sw *snapshot.Writer, proc engine.Processor) error {
	sw.Uvarint(uint64(len(body.subIDs)))
	for _, id := range body.subIDs {
		sw.Int(id)
	}
	blob := sw.BeginBlob()
	inner := sw.Begin()
	if err := proc.Snapshot(sw); err != nil {
		return err
	}
	sw.End(inner)
	sw.EndBlob(blob)
	if body.disordered {
		// The reorder section: bound and policy once, then each feed's
		// buffer (watermark, counters, buffered frames) in feed order. A
		// snapshot taken mid-reassembly restores to the exact same
		// mid-reassembly state.
		sw.Uvarint(uint64(body.bound))
		sw.Uvarint(uint64(body.late))
		feeds := make([]FeedID, 0, len(body.buffers))
		for feed := range body.buffers {
			feeds = append(feeds, feed)
		}
		slices.Sort(feeds)
		sw.Uvarint(uint64(len(feeds)))
		for _, feed := range feeds {
			sw.Varint(int64(feed))
			body.buffers[feed].Encode(sw)
		}
	}
	return nil
}

// Resume rebuilds a session from a snapshot written by
// Session.Snapshot (or a bare engine or pool snapshot, as builds before
// the Session API wrote — the stream records which it holds). The
// session continues exactly where the original stopped: NextFID reports
// where to resume the feed, and feeding the remaining frames emits the
// matches an uninterrupted run would have. Recorded state wins; options
// supply the registry to share with the caller's codecs, cross-checks
// (WithMethod, WithWorkers, WithShardMode — a disagreement is an
// ErrSnapshotMismatch), checkpointing for the resumed run, and sinks
// for restored subscriptions (WithSubscriptionSinks, or
// Subscription.Attach afterwards).
func Resume(ctx context.Context, r io.Reader, opts ...Option) (*Session, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if len(cfg.queries) > 0 {
		return nil, fmt.Errorf("tvq: %w: Resume restores the recorded query set; register further queries with Subscribe, not WithQueries", ErrSnapshotMismatch)
	}
	// The input is read once, into one buffer the file's header sizes,
	// and both containers are checked where they lie. The outer parse
	// tells a session snapshot, which wraps subscription ids and reorder
	// state around an embedded processor snapshot, from a bare processor
	// snapshot; engine.Restore routes on the kind the processor payload
	// records either way.
	payload, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	kind, sr, err := snapshot.Kind(payload)
	if err != nil {
		return nil, err
	}

	var body sessionBody
	body.procData = payload
	if kind == payloadSession || kind == payloadSessionV2 {
		body, err = decodeSessionBody(sr, kind == payloadSessionV2)
		if err != nil {
			return nil, err
		}
	}

	// Reconcile the recorded reorder stage with the Resume options:
	// recorded state wins, explicit disagreement is a mismatch. A legacy
	// snapshot plus WithDisorderBound attaches a fresh stage at the
	// recorded cursors (buffers materialize lazily per feed).
	if body.disordered {
		if cfg.disorderSet && cfg.disorder != body.bound {
			return nil, fmt.Errorf("tvq: %w: snapshot was taken with disorder bound %d; cannot restore with %d",
				ErrSnapshotMismatch, body.bound, cfg.disorder)
		}
		if cfg.lateSet && cfg.late != body.late {
			return nil, fmt.Errorf("tvq: %w: snapshot was taken with late policy %v; cannot restore with %v",
				ErrSnapshotMismatch, body.late, cfg.late)
		}
		cfg.disorder, cfg.disorderSet = body.bound, true
		cfg.late, cfg.lateSet = body.late, true
	} else if cfg.lateSet && !cfg.disorderSet {
		return nil, fmt.Errorf("tvq: WithLatePolicy requires WithDisorderBound")
	}

	s := &Session{cfg: cfg, subs: make(map[int]*Subscription), done: make(chan struct{})}
	if cfg.disorderSet {
		s.reorder = body.buffers
		if s.reorder == nil {
			s.reorder = make(map[FeedID]*reorder.Buffer)
		}
	}
	if s.proc, err = engine.Restore(body.procData, cfg.proc); err != nil {
		return nil, err
	}

	// Cross-check the remaining explicit options against what the
	// snapshot recorded — recorded state wins, silent disagreement is
	// worse than an error.
	if cfg.pruneSet && cfg.proc.Engine.Prune != s.proc.Pruned() {
		s.proc.Close()
		return nil, fmt.Errorf("tvq: %w: snapshot was taken with pruning=%v; cannot restore with pruning=%v",
			ErrSnapshotMismatch, s.proc.Pruned(), cfg.proc.Engine.Prune)
	}
	if cfg.windowsSet && cfg.proc.Engine.Windows != s.proc.WindowMode() {
		s.proc.Close()
		return nil, fmt.Errorf("tvq: %w: snapshot was taken with window mode %d; cannot restore with %d",
			ErrSnapshotMismatch, s.proc.WindowMode(), cfg.proc.Engine.Windows)
	}
	// A restored buffer's cursor must equal the processor's cursor for
	// its feed: the stage releases eagerly, so between batches the two
	// always agree — disagreement means the snapshot's halves are
	// inconsistent.
	for feed, b := range s.reorder {
		if b.Cursor() != s.proc.NextFID(feed) {
			s.proc.Close()
			return nil, fmt.Errorf("tvq: %w: reorder buffer for feed %d resumes at frame %d but the engine expects %d",
				ErrSnapshotMismatch, feed, b.Cursor(), s.proc.NextFID(feed))
		}
	}

	// Recreate the recorded subscriptions around their (restored)
	// queries.
	byID := make(map[int]Query)
	for _, q := range s.proc.Queries() {
		byID[q.ID] = q
	}
	for _, id := range body.subIDs {
		q, ok := byID[id]
		if !ok {
			s.proc.Close()
			return nil, fmt.Errorf("tvq: %w: snapshot records subscription %d but no such query", ErrSnapshotMismatch, id)
		}
		sub := &Subscription{s: s, q: q, done: make(chan struct{})}
		if cfg.subSinks != nil {
			if sink := cfg.subSinks(q); sink != nil {
				s.bindSink(sub, sink)
				sub.sink = sink
			}
		}
		s.subs[id] = sub
	}
	s.subGen.Add(1) // routes start empty at generation 0
	s.initCheckpointer()
	s.watchContext(ctx)
	return s, nil
}

// sessionBody is the decoded payload of a session snapshot: the
// recorded subscription ids, the embedded processor snapshot's payload
// (checksum verified), and — for the v2 ("session2") kind — the reorder
// stage's state.
type sessionBody struct {
	subIDs   []int
	procData []byte

	disordered bool
	bound      int
	late       LatePolicy
	buffers    map[FeedID]*reorder.Buffer
}

// decodeSessionBody unpacks the rest of a session snapshot — the kind
// tag has already been consumed from sr. v2 selects the "session2"
// layout, which appends the reorder section.
func decodeSessionBody(sr *snapshot.Reader, v2 bool) (sessionBody, error) {
	var body sessionBody
	n := sr.Count(1)
	for i := 0; i < n; i++ {
		body.subIDs = append(body.subIDs, sr.Int())
	}
	inner := sr.Blob()
	if err := sr.Err(); err != nil {
		return sessionBody{}, err
	}
	procData, err := snapshot.Parse(inner)
	if err != nil {
		return sessionBody{}, err
	}
	body.procData = procData
	if v2 {
		body.disordered = true
		if bound := sr.Uvarint(); bound > math.MaxInt {
			sr.Fail("tvq: snapshot records disorder bound %d", bound)
		} else {
			body.bound = int(bound)
		}
		if pol := sr.Uvarint(); pol > uint64(LateError) {
			sr.Fail("tvq: snapshot records unknown late policy %d", pol)
		} else {
			body.late = LatePolicy(pol)
		}
		nfeeds := sr.Count(5)
		if err := sr.Err(); err != nil {
			return sessionBody{}, err
		}
		body.buffers = make(map[FeedID]*reorder.Buffer, nfeeds)
		for i := 0; i < nfeeds; i++ {
			feed := FeedID(sr.Varint())
			buf, err := reorder.Decode(sr, body.bound, body.late)
			if err != nil {
				return sessionBody{}, err
			}
			if _, dup := body.buffers[feed]; dup {
				return sessionBody{}, fmt.Errorf("tvq: snapshot records feed %d's reorder buffer twice", feed)
			}
			body.buffers[feed] = buf
		}
		if err := sr.Err(); err != nil {
			return sessionBody{}, err
		}
	}
	if sr.Remaining() != 0 {
		return sessionBody{}, fmt.Errorf("tvq: %d trailing bytes after session state", sr.Remaining())
	}
	return body, nil
}

// Close ends the session: the context watcher stops, in-flight channel
// deliveries unblock, the processor's goroutines shut down, every
// subscription channel closes, and — when WithCheckpoint is configured
// — a final checkpoint is written (a write failure is returned and
// also recorded for Err). Close is idempotent and safe to call from
// any goroutine except inside a Sink.Deliver on the processing path —
// there it would deadlock on the session's own processing lock; to
// stop the session from a sink, return an error from Deliver (it
// surfaces from Process) and Close outside. After Close every
// operation returns ErrSessionClosed.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done) // unblocks sinks so an in-flight Process can finish
	s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}

	s.procMu.Lock()
	defer s.procMu.Unlock()
	s.applyPendingLocked() // cancelled queries must not reach the final checkpoint
	var err error
	if s.ck.path != "" {
		if err = s.ck.write(s.snapshotLocked); err != nil {
			// Close may run from the context watcher, where nobody sees
			// the return value; record the failure so Err surfaces it.
			s.setErr(err)
		}
	}
	s.proc.Close()
	s.mu.Lock()
	subs := make([]*Subscription, 0, len(s.subs)+len(s.pending))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	subs = append(subs, s.pending...)
	s.pending = nil
	s.mu.Unlock()
	for _, sub := range subs {
		endSink(sub.sink)
	}
	return err
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// setErr records the session's first error, surfaced by Err.
func (s *Session) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first error the session hit on a path that could not
// report it directly — a Stream iteration or a cadence checkpoint.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Queries returns all registered queries, initial and subscribed.
func (s *Session) Queries() []Query {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return s.proc.Queries()
}

// Method returns the MCOS maintenance strategy the session runs.
func (s *Session) Method() Method {
	return s.proc.Method()
}

// Workers returns the number of parallel engine shards (one for a
// single-engine session).
func (s *Session) Workers() int { return s.proc.Workers() }

// Pooled reports whether the session runs a parallel pool.
func (s *Session) Pooled() bool {
	_, pooled := s.proc.(*engine.Pool)
	return pooled
}

// MultiFeed reports whether the session accepts frames of feeds other
// than 0 — true only for pooled ShardByFeed sessions. Single-engine and
// group-sharded pooled sessions serve exactly one feed.
func (s *Session) MultiFeed() bool { return s.proc.MultiFeed() }

// StateCount reports live MCOS states across all shards, for
// instrumentation.
func (s *Session) StateCount() int {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return s.proc.StateCount()
}

// NextFID returns the id of the next frame the session expects for
// feed — equal to the frames processed so far, and, after Resume, where
// to pick the feed back up.
func (s *Session) NextFID(feed FeedID) FrameID {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return s.proc.NextFID(feed)
}

// checkpointer writes session snapshots to a path on a frame-count or
// wall-clock cadence, atomically (temp file + fsync + rename) so a
// crash during a write never clobbers the previous good checkpoint.
type checkpointer struct {
	path   string
	every  Cadence
	frames int
	last   time.Time
}

// due reports whether a checkpoint should be written after n more
// processed frames.
func (c *checkpointer) due(n int) bool {
	if c.path == "" {
		return false
	}
	c.frames += n
	if c.every.Frames > 0 && c.frames >= c.every.Frames {
		return true
	}
	if c.every.Interval > 0 && time.Since(c.last) >= c.every.Interval {
		return true
	}
	return false
}

// write snapshots via snap into path atomically and resets the cadence.
func (c *checkpointer) write(snap func(io.Writer) error) error {
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("tvq: checkpoint: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tvq: checkpoint: %w", err)
	}
	if err := snap(f); err != nil {
		return fail(err)
	}
	// Flush to stable storage before the rename becomes visible:
	// without this a power loss can persist the rename but not the
	// data, leaving a truncated file where the previous good
	// checkpoint was.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tvq: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tvq: checkpoint: %w", err)
	}
	c.frames = 0
	c.last = time.Now()
	return nil
}
