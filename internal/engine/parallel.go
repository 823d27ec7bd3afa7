package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tvq/internal/cnf"
	"tvq/internal/query"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// FeedID identifies one video feed (one camera) in a multi-feed pool.
// Frame ids are per-feed: every feed numbers its frames consecutively
// from 0, independently of the other feeds.
type FeedID int

// FeedFrame is one frame of one feed, the unit of ingestion for a Pool.
type FeedFrame struct {
	Feed  FeedID
	Frame vr.Frame
}

// FeedResult couples one processed frame with its matches. Pools deliver
// results in ingestion order (the order frames were passed to
// ProcessBatch).
type FeedResult struct {
	Feed    FeedID
	FID     vr.FrameID
	Matches []query.Match
}

// ShardMode selects how a Pool distributes work across its engines.
type ShardMode int

const (
	// ShardByFeed pins each feed to one worker (feed id modulo worker
	// count); every worker owns one full engine per feed it serves. This
	// is the multi-camera mode: feeds progress independently and in
	// parallel, and each feed sees exactly the matches a dedicated
	// single engine would produce.
	ShardByFeed ShardMode = iota
	// ShardByGroup partitions the window groups of a single feed across
	// workers: every worker evaluates a contiguous (by window size)
	// subset of the queries over every frame. Use it when one feed
	// carries many queries with several distinct window sizes. Input
	// must be a single feed with consecutive frame ids.
	ShardByGroup
)

// PoolOptions configures a Pool and, through Open and Restore, says
// whether there is to be a pool at all.
type PoolOptions struct {
	// Workers is the number of worker goroutines (and engine shards);
	// default runtime.GOMAXPROCS(0). To Restore, zero means "as
	// recorded".
	Workers int
	// Mode selects feed sharding (default, multi-camera) or window-group
	// sharding (single feed, many queries).
	Mode ShardMode
	// Sharded marks Mode as the caller's explicit choice rather than the
	// zero value: Open then builds a pool even for a single worker, and
	// Restore refuses a bare engine's snapshot. NewPool ignores it.
	Sharded bool
	// Engine configures every engine the pool creates.
	Engine Options
}

// DefaultBatch is how many frames callers that batch on their own
// (Session.Run, Session.Stream) hand to one Process call by default.
const DefaultBatch = 64

// Pool runs N independent engines in parallel over a multi-feed frame
// stream. The pool shards frames across them and merges per-shard
// results back into ingestion order. A Pool is itself single-caller: do
// not invoke its methods concurrently.
//
// The engines stay single-writer: one goroutine at a time touches a
// shard's engines, though not always the same one. A dispatched job
// runs on the shard's worker goroutine, and a ShardByFeed batch that
// maps to one shard runs on the caller's; so do Snapshot, AddQuery and
// StateCount, between batches. The order is kept by the job channel
// (the send happens before the worker's receive) and the WaitGroup (the
// worker's Done happens before the caller's Wait returns): a shard's
// engines are never touched by the caller while a job of theirs is in
// flight.
type Pool struct {
	opts    PoolOptions
	queries []cnf.Query
	shared  *poolWorkerShared
	workers []*poolWorker
	wg      sync.WaitGroup
	closed  bool
}

// poolWorker holds the engines of one shard. Its goroutine runs the
// jobs dispatched to it; between jobs the pool's caller may touch the
// engines too (see Pool).
type poolWorker struct {
	pool  *poolWorkerShared
	in    chan *poolJob
	eng   *Engine            // ShardByGroup: this shard's query subset
	feeds map[FeedID]*Engine // ShardByFeed: one engine per feed served

	// snap holds this shard's encoding while Pool.Snapshot assembles a
	// ShardByGroup payload; the buffer is kept for the next snapshot.
	snap snapshot.Writer
}

// poolWorkerShared is the worker-visible slice of the pool.
type poolWorkerShared struct {
	mode    ShardMode
	queries []cnf.Query
	engOpts Options
}

// poolJob is one dispatched batch slice. Workers write each frame's
// matches into out — at idx[k] when idx is set (ShardByFeed, shared
// slice, disjoint indices) or at k (ShardByGroup, per-worker column) —
// then signal done. The WaitGroup gives the dispatcher the
// happens-before edge it needs to read out.
type poolJob struct {
	frames []FeedFrame
	idx    []int
	out    [][]query.Match
	done   *sync.WaitGroup
}

// NewPool builds a pool of engines over the given queries. In
// ShardByGroup mode the queries are partitioned by window size across at
// most Workers engines; in ShardByFeed mode every feed gets a full
// engine over all queries, created on the feed's first frame.
func NewPool(queries []cnf.Query, opts PoolOptions) (*Pool, error) {
	p, err := buildPool(queries, opts)
	if err != nil {
		return nil, err
	}
	p.start()
	return p, nil
}

// buildPool constructs the pool and its workers without launching any
// goroutine; start launches the worker loops. In ShardByGroup mode it
// partitions the window groups across the shards and builds every shard
// engine before returning, so an engine error for a later shard cannot
// strand earlier workers blocked on their job channels.
func buildPool(queries []cnf.Query, opts PoolOptions) (*Pool, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Mode != ShardByFeed && opts.Mode != ShardByGroup {
		return nil, fmt.Errorf("engine: unknown shard mode %d", opts.Mode)
	}
	// An empty query set is valid, mirroring engine.New: the pool idles
	// until queries arrive via AddQuery.
	if opts.Mode == ShardByFeed || len(queries) == 0 {
		// Validate queries and options up front so lazy per-feed engine
		// construction inside workers cannot fail. Non-empty ShardByGroup
		// skips this: its eager per-shard New calls below cover validation.
		if _, err := New(queries, opts.Engine); err != nil {
			return nil, err
		}
	}
	if opts.Mode == ShardByFeed {
		return newPoolShell(queries, opts), nil
	}

	parts := partitionByWindow(queries, opts.Workers)
	if len(queries) == 0 {
		// No window groups yet: keep every requested shard, each with an
		// idle engine, so dynamic queries can spread across them.
		parts = make([][]cnf.Query, opts.Workers)
	}
	opts.Workers = len(parts) // fewer window groups than workers
	p := newPoolShell(queries, opts)
	for i, w := range p.workers {
		eng, err := New(parts[i], opts.Engine)
		if err != nil {
			return nil, err
		}
		w.eng = eng
	}
	return p, nil
}

// newPoolShell constructs a pool with opts.Workers workers and no
// engines: buildPool installs freshly built shard engines into it,
// snapshot restore the decoded ones, and then the caller calls start.
// Restore deliberately skips buildPool's window-group partitioning — the
// snapshot records which shard holds which groups, and dynamic
// registration may have placed them where fresh partitioning would not.
func newPoolShell(queries []cnf.Query, opts PoolOptions) *Pool {
	p := &Pool{opts: opts, queries: queries}
	p.shared = &poolWorkerShared{mode: opts.Mode, queries: queries, engOpts: opts.Engine}
	for i := 0; i < opts.Workers; i++ {
		w := &poolWorker{pool: p.shared, in: make(chan *poolJob, 1)}
		if opts.Mode == ShardByFeed {
			w.feeds = make(map[FeedID]*Engine)
		}
		p.workers = append(p.workers, w)
	}
	return p
}

// start launches the worker goroutines; the pool is usable afterwards.
func (p *Pool) start() {
	for _, w := range p.workers {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run()
		}()
	}
}

// partitionByWindow groups queries by window size, orders the groups by
// ascending window, and splits them into at most n contiguous shards
// balanced by query count. Contiguity in window order is what makes the
// concatenation of per-shard matches identical to a single engine's
// output, which iterates its groups in ascending window order.
func partitionByWindow(queries []cnf.Query, n int) [][]cnf.Query {
	byWindow := make(map[int][]cnf.Query)
	for _, q := range queries {
		byWindow[q.Window] = append(byWindow[q.Window], q)
	}
	windows := make([]int, 0, len(byWindow))
	for w := range byWindow {
		windows = append(windows, w)
	}
	sort.Ints(windows)
	if n > len(windows) {
		n = len(windows)
	}

	var parts [][]cnf.Query
	var cur []cnf.Query
	remaining := len(queries)
	for i, w := range windows {
		cur = append(cur, byWindow[w]...)
		remaining -= len(byWindow[w])
		shardsLeft := n - len(parts)
		groupsLeft := len(windows) - i - 1
		// Close the shard once it carries its fair share of the remaining
		// queries, but never leave more shards open than groups remain.
		if shardsLeft > 1 && (len(cur)*(shardsLeft-1) >= remaining || groupsLeft < shardsLeft) {
			parts = append(parts, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		parts = append(parts, cur)
	}
	return parts
}

// run is the worker loop: process dispatched jobs until the channel
// closes.
func (w *poolWorker) run() {
	for job := range w.in {
		w.process(job)
		job.done.Done()
	}
}

// process runs a job's frames through this shard's engines and records
// their matches in the job's result slots. The worker loop calls it for
// a dispatched job, and processByFeed on its own goroutine for a batch
// that maps to this shard alone.
func (w *poolWorker) process(job *poolJob) {
	for k, ff := range job.frames {
		eng := w.eng
		if w.pool.mode == ShardByFeed {
			eng = w.engineFor(ff.Feed)
		}
		ms := eng.ProcessFrame(ff.Frame)
		if job.idx != nil {
			job.out[job.idx[k]] = ms
		} else {
			job.out[k] = ms
		}
	}
}

// engineFor returns the engine for feed, creating it on first use.
// Construction cannot fail here: NewPool validated the same queries and
// options against engine.New.
func (w *poolWorker) engineFor(feed FeedID) *Engine {
	if eng, ok := w.feeds[feed]; ok {
		return eng
	}
	eng, err := New(w.pool.queries, w.pool.engOpts)
	if err != nil {
		panic(fmt.Sprintf("engine: pool-validated queries failed: %v", err))
	}
	w.feeds[feed] = eng
	return eng
}

// shardOf maps a feed to its worker.
func (p *Pool) shardOf(feed FeedID) int {
	s := int(feed) % len(p.workers)
	if s < 0 {
		s += len(p.workers)
	}
	return s
}

// ProcessBatch runs one batch of frames through the pool and returns the
// frames that produced at least one match, in ingestion order. Frames of
// the same feed must appear in frame-id order within and across batches
// (each feed consecutive from 0); feeds may interleave arbitrarily. In
// ShardByGroup mode the batch must be a single feed's consecutive
// frames.
func (p *Pool) ProcessBatch(frames []FeedFrame) []FeedResult {
	if len(frames) == 0 {
		return nil
	}
	// No closed-pool guard: calling ProcessBatch after Close is caller
	// error and panics on the closed worker channels.
	switch p.opts.Mode {
	case ShardByFeed:
		return p.processByFeed(frames)
	default:
		return p.processByGroup(frames)
	}
}

// processByFeed splits the batch into one job per worker, preserving
// per-feed order, and reassembles matches by their position in the input
// batch — the reorder buffer is the shared out slice indexed by
// ingestion sequence. A batch whose frames all map to one shard (a
// served batch always does: it carries one feed) runs on the calling
// goroutine instead: a hand-off would only make the caller wait for the
// worker.
func (p *Pool) processByFeed(frames []FeedFrame) []FeedResult {
	out := make([][]query.Match, len(frames))
	if s, ok := p.oneShard(frames); ok {
		p.workers[s].process(&poolJob{frames: frames, out: out})
		return assemble(frames, out)
	}
	var done sync.WaitGroup
	jobs := make([]*poolJob, len(p.workers))
	for i, ff := range frames {
		s := p.shardOf(ff.Feed)
		if jobs[s] == nil {
			jobs[s] = &poolJob{out: out, done: &done}
		}
		jobs[s].frames = append(jobs[s].frames, ff)
		jobs[s].idx = append(jobs[s].idx, i)
	}
	for s, job := range jobs {
		if job == nil {
			continue
		}
		done.Add(1)
		p.workers[s].in <- job
	}
	done.Wait()
	return assemble(frames, out)
}

// oneShard reports the shard every frame of the batch maps to, if there
// is one.
func (p *Pool) oneShard(frames []FeedFrame) (int, bool) {
	s := p.shardOf(frames[0].Feed)
	for _, ff := range frames[1:] {
		if ff.Feed != frames[0].Feed && p.shardOf(ff.Feed) != s {
			return 0, false
		}
	}
	return s, true
}

// processByGroup fans the whole batch out to every shard and merges each
// frame's matches by concatenating the shard columns in worker order;
// shards hold ascending window ranges, so for the construction-time
// query set the concatenation reproduces a single engine's match order
// exactly. Once AddQuery has routed a new window size to a shard,
// cross-query order within a frame may differ from a single engine's
// (which appends new groups at the end of its own iteration order);
// the per-query match streams remain identical.
func (p *Pool) processByGroup(frames []FeedFrame) []FeedResult {
	cols := make([][][]query.Match, len(p.workers))
	var done sync.WaitGroup
	for s, w := range p.workers {
		cols[s] = make([][]query.Match, len(frames))
		done.Add(1)
		w.in <- &poolJob{frames: frames, out: cols[s], done: &done}
	}
	done.Wait()

	// A shard's column entry is its engine's caller-owned result, so a
	// frame only one shard matched keeps that slice without a copy.
	merged := cols[0]
	for i := range frames {
		for s := 1; s < len(cols); s++ {
			if len(merged[i]) == 0 {
				merged[i] = cols[s][i]
			} else {
				merged[i] = append(merged[i], cols[s][i]...)
			}
		}
	}
	return assemble(frames, merged)
}

// assemble pairs each input frame with its matches and drops matchless
// frames, preserving ingestion order.
func assemble(frames []FeedFrame, matches [][]query.Match) []FeedResult {
	var out []FeedResult
	for i, ff := range frames {
		if len(matches[i]) == 0 {
			continue
		}
		out = append(out, FeedResult{Feed: ff.Feed, FID: ff.Frame.FID, Matches: matches[i]})
	}
	return out
}

// Workers returns the number of engine shards in the pool.
func (p *Pool) Workers() int { return len(p.workers) }

// MultiFeed reports whether the pool accepts feeds other than 0: only
// ShardByFeed does, ShardByGroup spreads one feed's window groups.
func (p *Pool) MultiFeed() bool { return p.opts.Mode == ShardByFeed }

// Method returns the state maintenance strategy the pool's engines run.
func (p *Pool) Method() Method {
	if p.opts.Engine.Method == "" {
		return MethodSSG
	}
	return p.opts.Engine.Method
}

// Pruned reports whether the pool's engines run §5.3 result-driven
// pruning.
func (p *Pool) Pruned() bool { return p.opts.Engine.Prune }

// WindowMode reports the pool's window semantics.
func (p *Pool) WindowMode() WindowMode { return p.opts.Engine.Windows }

// Queries returns the pool's query set, in registration order.
func (p *Pool) Queries() []cnf.Query {
	out := make([]cnf.Query, len(p.queries))
	copy(out, p.queries)
	return out
}

// StateCount reports the total number of live states across every engine
// in the pool, for instrumentation. Call it only between ProcessBatch
// calls; it reads the shards' engines on the caller's goroutine (see
// Pool).
func (p *Pool) StateCount() int {
	n := 0
	for _, w := range p.workers {
		if w.eng != nil {
			n += w.eng.StateCount()
		}
		for _, eng := range w.feeds {
			n += eng.StateCount()
		}
	}
	return n
}

// Close shuts down the worker goroutines and returns once they have
// exited. The pool must not be used afterwards; Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, w := range p.workers {
		close(w.in)
	}
	p.wg.Wait()
}
