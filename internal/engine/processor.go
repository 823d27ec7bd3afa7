package engine

import (
	"tvq/internal/cnf"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// Processor is the one seam between the tvq Session facade and query
// execution. It has exactly two implementations — *Engine, which runs
// frames inline on the caller's goroutine, and *Pool, which shards them
// across worker goroutines — and callers cannot tell them apart: Open
// and Restore decide which one a configuration or a snapshot calls for,
// and everything a caller may ask about the shape afterwards (Workers,
// MultiFeed) is a method here. All methods follow the single-caller
// discipline of the underlying types — invoke them from one goroutine,
// never concurrently with Process.
type Processor interface {
	// Process runs one batch of frames and returns the frames that
	// produced at least one match, in ingestion order. Results are
	// caller-owned: matches stay valid indefinitely (the evaluation
	// layer detaches them from generator state). For borrowed frames
	// (Frame.Owned false, the default) the processor keeps nothing that
	// aliases the caller's frames — the caller may reuse frame backing
	// storage as soon as Process returns. A frame with Owned set
	// transfers its object-set storage to the processor instead; the
	// caller must not mutate or reuse that storage afterwards. Sets are
	// immutable once constructed, so pool shards may read one owned set
	// concurrently.
	Process(frames []FeedFrame) []FeedResult
	// AddQuery registers a query on the live processor; see
	// Engine.AddQuery for the sharing/restart semantics and the
	// ErrDuplicateQuery / ErrPruningIncompatible failure modes.
	AddQuery(q cnf.Query) error
	// RemoveQuery deregisters a query, reporting whether it was present.
	RemoveQuery(id int) (bool, error)
	// Queries returns all registered queries.
	Queries() []cnf.Query
	// Method returns the MCOS maintenance strategy in use.
	Method() Method
	// Pruned reports whether §5.3 result-driven pruning is enabled.
	Pruned() bool
	// WindowMode reports sliding or tumbling window semantics.
	WindowMode() WindowMode
	// StateCount reports live states across all shards, for
	// instrumentation.
	StateCount() int
	// Workers returns the number of engine shards frames are spread
	// over; one for a bare engine.
	Workers() int
	// MultiFeed reports whether Process accepts frames of feeds other
	// than 0. When false, passing one is a caller bug the processor
	// does not promise to catch; callers holding outside input check
	// first.
	MultiFeed() bool
	// NextFID returns the id of the next frame expected for feed.
	NextFID(feed FeedID) vr.FrameID
	// Snapshot appends complete processor state to sw as a snapshot
	// payload, for the caller to frame; Restore reads it back.
	Snapshot(sw *snapshot.Writer) error
	// Close releases goroutines and other resources; idempotent.
	Close()
}

// Compile-time checks that both execution shapes satisfy the contract.
var (
	_ Processor = (*Engine)(nil)
	_ Processor = (*Pool)(nil)
)

// Open builds the processor opts describes: a pool when more than one
// worker or an explicit shard mode is asked for, a bare engine
// otherwise.
func Open(queries []cnf.Query, opts PoolOptions) (Processor, error) {
	if opts.Workers > 1 || opts.Sharded {
		p, err := NewPool(queries, opts)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	e, err := New(queries, opts.Engine)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Process runs the batch through the engine, frame by frame, on the
// caller's goroutine: frames must belong to feed 0 and arrive in
// frame-id order, exactly as ProcessFrame demands.
func (e *Engine) Process(frames []FeedFrame) []FeedResult {
	var out []FeedResult
	for _, ff := range frames {
		if ff.Feed != 0 {
			panic("engine: a bare engine serves feed 0 only")
		}
		if ms := e.ProcessFrame(ff.Frame); len(ms) > 0 {
			out = append(out, FeedResult{Feed: 0, FID: ff.Frame.FID, Matches: ms})
		}
	}
	return out
}

// Workers is one: the engine is its own only shard.
func (e *Engine) Workers() int { return 1 }

// MultiFeed is false: an engine serves feed 0.
func (e *Engine) MultiFeed() bool { return false }

// Close is a no-op: a bare engine owns no goroutines.
func (e *Engine) Close() {}

// Process is ProcessBatch under the Processor contract's name.
func (p *Pool) Process(frames []FeedFrame) []FeedResult { return p.ProcessBatch(frames) }
