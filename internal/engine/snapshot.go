package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// Checkpoint/restore for engines and pools. A snapshot captures every
// piece of incremental state — options, registry, the feed-wide
// object→class table, the feed cursor, and for each window group its
// queries (including dynamically added ones), group start offset, and
// the complete generator state — framed by the versioned, checksummed
// container of internal/snapshot. The restore contract is "restore then
// continue": a restored engine emits exactly the matches the original
// would have emitted had it never stopped.

// Payload kind tags distinguishing engine from pool snapshots.
const (
	payloadEngine = "engine"
	payloadPool   = "pool"
)

// Snapshot appends the engine's complete state to sw as a snapshot
// payload, which the caller frames (snapshot.Writer.Begin/End). The
// engine must be quiescent (no concurrent ProcessFrame); the engine is
// not mutated and may continue processing afterwards.
func (e *Engine) Snapshot(sw *snapshot.Writer) error {
	sw.String(payloadEngine)
	return e.encode(sw)
}

// Restore reconstructs the processor a snapshot payload holds — an
// engine from Engine.Snapshot, a pool from Pool.Snapshot; the payload
// records which. payload is what snapshot.Read or snapshot.Parse
// returns, checksum verified; it is decoded where it lies and not
// retained.
// Recorded state wins; opts cross-checks it, and a disagreement is an
// ErrSnapshotMismatch: a worker count above one or an explicit shard
// mode against an engine snapshot, a different worker count or shard
// mode against a pool's, a non-empty Engine.Method against the recorded
// one. opts.Engine.Registry, when set, is shared with the restored
// engines (its class names must agree with the recording), and
// opts.Engine.Observe is installed on them. A malformed payload returns
// a descriptive error.
func Restore(payload []byte, opts PoolOptions) (Processor, error) {
	kind, sr, err := snapshot.Kind(payload)
	if err != nil {
		return nil, err
	}
	switch kind {
	case payloadEngine:
		if opts.Workers > 1 {
			return nil, fmt.Errorf("engine: %w: snapshot holds a single engine; cannot restore with %d workers", ErrSnapshotMismatch, opts.Workers)
		}
		if opts.Sharded {
			return nil, fmt.Errorf("engine: %w: snapshot holds a single engine; a shard mode does not apply", ErrSnapshotMismatch)
		}
		e, err := decodeEngine(sr, opts.Engine)
		if err != nil {
			return nil, err
		}
		if sr.Remaining() != 0 {
			return nil, fmt.Errorf("engine: %d trailing bytes after engine state", sr.Remaining())
		}
		return e, nil
	case payloadPool:
		p, err := decodePool(sr, opts)
		if err != nil {
			return nil, err
		}
		if sr.Remaining() != 0 {
			return nil, fmt.Errorf("engine: %d trailing bytes after pool state", sr.Remaining())
		}
		p.start()
		return p, nil
	}
	return nil, fmt.Errorf("engine: snapshot holds unknown state kind %q", kind)
}

// encodeOptions writes the option header engine and pool payloads share:
// method, pruning, class filter, window mode and the registry's class
// names. opts must have its defaults filled in.
func encodeOptions(sw *snapshot.Writer, opts Options) {
	sw.String(string(opts.Method))
	sw.Bool(opts.Prune)
	sw.Bool(opts.KeepAllClasses)
	sw.Int(int(opts.Windows))
	names := opts.Registry.Names()
	sw.Uvarint(uint64(len(names)))
	for _, n := range names {
		sw.String(n)
	}
}

// decodeOptions reads the header encodeOptions wrote and reconciles it
// with the caller's options: the recorded method, pruning, class filter
// and window mode win; want supplies a method to cross-check when
// non-empty, the registry to share — its names must agree with the
// recorded ones, further classes registered since are fine — and the
// observer, which snapshots do not record.
func decodeOptions(sr *snapshot.Reader, want Options) (Options, error) {
	method := Method(sr.String())
	prune := sr.Bool()
	keepAll := sr.Bool()
	windows := WindowMode(sr.Int())
	n := sr.Count(1)
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, sr.String())
	}
	if err := sr.Err(); err != nil {
		return Options{}, err
	}
	switch method {
	case MethodNaive, MethodMFS, MethodSSG:
	default:
		return Options{}, fmt.Errorf("engine: snapshot records unknown method %q", method)
	}
	if windows != Sliding && windows != Tumbling {
		return Options{}, fmt.Errorf("engine: snapshot records unknown window mode %d", windows)
	}
	if want.Method != "" && want.Method != method {
		return Options{}, fmt.Errorf("engine: %w: snapshot was taken with method %q; cannot restore as %q", ErrSnapshotMismatch, method, want.Method)
	}
	reg := want.Registry
	if reg == nil {
		reg = vr.NewRegistry(names...)
	} else {
		for i, name := range names {
			if got := reg.Name(vr.Class(i)); got != name {
				return Options{}, fmt.Errorf("engine: %w: registry mismatch: snapshot class %d is %q, supplied registry has %q", ErrSnapshotMismatch, i, name, got)
			}
		}
	}
	return Options{Method: method, Prune: prune, Registry: reg, KeepAllClasses: keepAll, Windows: windows, Observe: want.Observe}, nil
}

func (e *Engine) encode(sw *snapshot.Writer) error {
	encodeOptions(sw, e.opts)
	sw.Varint(e.next)

	ids := make([]objset.ID, 0, len(e.classes))
	for id := range e.classes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sw.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		sw.Uvarint(uint64(id))
		sw.Uvarint(uint64(e.classes[id]))
	}

	sw.Uvarint(uint64(len(e.groups)))
	for _, g := range e.groups {
		sw.Varint(g.start)
		encodeQueries(sw, g.eval.Queries())
		if err := core.EncodeGenerator(sw, g.gen); err != nil {
			return err
		}
	}
	return nil
}

func decodeEngine(sr *snapshot.Reader, want Options) (*Engine, error) {
	opts, err := decodeOptions(sr, want)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, classes: make(map[objset.ID]vr.Class)}
	e.classOf = func(id objset.ID) vr.Class { return e.classes[id] }
	e.next = sr.Varint()
	if e.next < 0 {
		return nil, fmt.Errorf("engine: snapshot records negative frame cursor %d", e.next)
	}

	nclasses := sr.Count(2)
	for i := 0; i < nclasses; i++ {
		id := sr.Uvarint()
		class := sr.Uvarint()
		if id > math.MaxUint32 || class > math.MaxUint16 {
			return nil, fmt.Errorf("engine: snapshot object %d / class %d out of range", id, class)
		}
		e.classes[objset.ID(id)] = vr.Class(class)
	}

	ngroups := sr.Count(1)
	seen := make(map[int]bool, ngroups)
	for i := 0; i < ngroups; i++ {
		start := sr.Varint()
		queries := decodeQueries(sr)
		if err := sr.Err(); err != nil {
			return nil, err
		}
		if start < 0 || start > e.next {
			return nil, fmt.Errorf("engine: group %d start %d outside processed range [0, %d]", i, start, e.next)
		}
		ev, err := query.NewEvaluator(opts.Registry, queries)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot group %d queries invalid: %w", i, err)
		}
		if seen[ev.Window()] {
			return nil, fmt.Errorf("engine: snapshot has two groups for window %d", ev.Window())
		}
		seen[ev.Window()] = true
		gen, err := core.DecodeGenerator(sr, e.groupConfig(ev))
		if err != nil {
			return nil, err
		}
		if !strings.EqualFold(gen.Name(), string(opts.Method)) {
			return nil, fmt.Errorf("engine: snapshot group %d holds a %s generator, method %q needs its own", i, gen.Name(), opts.Method)
		}
		if gen.Next() != e.next-start {
			return nil, fmt.Errorf("engine: snapshot group %d from frame %d holds a generator at frame %d, not %d", i, start, gen.Next(), e.next-start)
		}
		g := &group{window: ev.Window(), eval: ev, gen: gen, start: start}
		e.setClassFilter(g)
		e.groups = append(e.groups, g)
	}
	return e, sr.Err()
}

func encodeQueries(sw *snapshot.Writer, qs []cnf.Query) {
	sw.Uvarint(uint64(len(qs)))
	for _, q := range qs {
		sw.Int(q.ID)
		sw.Int(q.Window)
		sw.Int(q.Duration)
		sw.Uvarint(uint64(len(q.Clauses)))
		for _, d := range q.Clauses {
			sw.Uvarint(uint64(len(d)))
			for _, c := range d {
				sw.Bool(c.Identity)
				sw.String(c.Label)
				sw.Int(int(c.Op))
				sw.Int(c.N)
			}
		}
	}
}

func decodeQueries(sr *snapshot.Reader) []cnf.Query {
	n := sr.Count(3)
	qs := make([]cnf.Query, 0, n)
	for i := 0; i < n; i++ {
		q := cnf.Query{ID: sr.Int(), Window: sr.Int(), Duration: sr.Int()}
		nc := sr.Count(1)
		for j := 0; j < nc; j++ {
			nd := sr.Count(4)
			d := make(cnf.Disjunction, 0, nd)
			for k := 0; k < nd; k++ {
				c := cnf.Condition{Identity: sr.Bool(), Label: sr.String()}
				c.Op = cnf.Op(sr.Int())
				c.N = sr.Int()
				d = append(d, c)
			}
			q.Clauses = append(q.Clauses, d)
		}
		if sr.Err() != nil {
			return nil
		}
		if err := q.Validate(); err != nil {
			sr.Fail("invalid query in snapshot: %v", err)
			return nil
		}
		qs = append(qs, q)
	}
	return qs
}

// Snapshot appends the pool's complete state to sw as a snapshot
// payload, which the caller frames: options, queries, and every shard
// engine (per window-group shard, or per feed). Call it only between
// ProcessBatch calls — like StateCount it reads the shards' engines on
// the caller's goroutine, which is safe exactly when no batch is in
// flight (see Pool).
func (p *Pool) Snapshot(sw *snapshot.Writer) error {
	sw.String(payloadPool)
	sw.Int(int(p.opts.Mode))
	sw.Int(len(p.workers))
	// The slot of a stream batch size pools no longer have. Older builds
	// refuse a pool payload whose batch is below one, so it keeps a
	// valid value.
	sw.Int(DefaultBatch)
	encodeQueries(sw, p.queries)

	engOpts := p.opts.Engine
	if engOpts.Method == "" {
		engOpts.Method = MethodSSG
	}
	if engOpts.Registry == nil {
		engOpts.Registry = vr.StandardRegistry()
	}
	encodeOptions(sw, engOpts)

	if p.opts.Mode == ShardByGroup {
		return p.encodeShards(sw)
	}
	type feedEngine struct {
		feed FeedID
		eng  *Engine
	}
	var all []feedEngine
	for _, w := range p.workers {
		for feed, eng := range w.feeds {
			all = append(all, feedEngine{feed, eng})
		}
	}
	slices.SortFunc(all, func(a, b feedEngine) int { return cmp.Compare(a.feed, b.feed) })
	sw.Uvarint(uint64(len(all)))
	for _, fe := range all {
		sw.Varint(int64(fe.feed))
		if err := fe.eng.encode(sw); err != nil {
			return err
		}
	}
	return nil
}

// encodeShards appends the ShardByGroup shard engines in worker order.
// The shards are independent and their workers idle between batches, so
// they are encoded at once: the first straight into sw on the caller's
// goroutine, every other into its worker's own writer, kept for the
// next snapshot, on a goroutine of its own; the others are then copied
// behind the first.
func (p *Pool) encodeShards(sw *snapshot.Writer) error {
	errs := make([]error, len(p.workers))
	var wg sync.WaitGroup
	for i, w := range p.workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.snap.Reset()
			errs[i+1] = w.eng.encode(&w.snap)
		}()
	}
	errs[0] = p.workers[0].eng.encode(sw)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, w := range p.workers[1:] {
		sw.AppendWith(func(dst []byte) []byte { return append(dst, w.snap.Bytes()...) })
	}
	return nil
}

// decodePool reads a pool payload after its kind tag and returns the
// pool with every shard engine installed and no worker running yet; the
// caller starts it. The recorded worker count and shard mode win — they
// shaped the sharding the engines' state depends on — and a non-zero
// opts.Workers or opts.Mode that disagrees with the recording is an
// ErrSnapshotMismatch.
func decodePool(sr *snapshot.Reader, opts PoolOptions) (*Pool, error) {
	mode := ShardMode(sr.Int())
	workers := sr.Int()
	batch := sr.Int() // validated like the rest of the layout, then unused
	queries := decodeQueries(sr)
	engOpts, err := decodeOptions(sr, opts.Engine)
	if err != nil {
		return nil, err
	}
	if mode != ShardByFeed && mode != ShardByGroup {
		return nil, fmt.Errorf("engine: snapshot records unknown shard mode %d", mode)
	}
	// Each ShardByGroup worker holds an engine payload (11 bytes or more);
	// ShardByFeed worker counts are configuration, like WithWorkers.
	if workers < 1 || batch < 1 || mode == ShardByGroup && workers > sr.Remaining()/11 {
		return nil, fmt.Errorf("engine: snapshot records invalid pool shape (%d workers, batch %d, %d bytes of engines)", workers, batch, sr.Remaining())
	}
	if opts.Workers > 0 && opts.Workers != workers {
		return nil, fmt.Errorf("engine: %w: snapshot was taken with %d workers; cannot restore with %d", ErrSnapshotMismatch, workers, opts.Workers)
	}
	if opts.Mode != mode && opts.Mode != ShardByFeed {
		return nil, fmt.Errorf("engine: %w: snapshot was taken in shard mode %d; cannot restore in mode %d", ErrSnapshotMismatch, mode, opts.Mode)
	}
	// Per-feed engines are built from the pool's queries on a feed's first
	// frame, where an error could only panic: validate them as NewPool does.
	if mode == ShardByFeed {
		if _, err := New(queries, engOpts); err != nil {
			return nil, err
		}
	}

	// A shell, not buildPool: the snapshot records exactly which shard
	// holds which engines (dynamic registration can place window groups
	// where fresh partitioning would not), so the restore installs the
	// decoded engines into empty workers instead of re-partitioning.
	p := newPoolShell(queries, PoolOptions{Workers: workers, Mode: mode, Engine: engOpts})
	// Each shard's own header decides its options; the pool's supplies
	// only what a header cannot hold.
	shard := Options{Registry: engOpts.Registry, Observe: engOpts.Observe}
	if mode == ShardByGroup {
		// The shards split one feed's window groups, so they share its cursor.
		for i, w := range p.workers {
			eng, err := decodeEngine(sr, shard)
			if err != nil {
				return nil, err
			}
			if w.eng = eng; eng.next != p.workers[0].eng.next {
				return nil, fmt.Errorf("engine: snapshot shard %d is at frame %d, shard 0 at %d", i, eng.next, p.workers[0].eng.next)
			}
		}
	} else {
		nfeeds := sr.Count(1)
		if err := sr.Err(); err != nil {
			return nil, err
		}
		seen := make(map[FeedID]bool, nfeeds)
		for i := 0; i < nfeeds; i++ {
			feed := FeedID(sr.Varint())
			if seen[feed] {
				return nil, fmt.Errorf("engine: snapshot records feed %d twice", feed)
			}
			seen[feed] = true
			eng, err := decodeEngine(sr, shard)
			if err != nil {
				return nil, err
			}
			p.workers[p.shardOf(feed)].feeds[feed] = eng
		}
	}
	return p, nil
}

// NextFID returns the id of the next frame the pool expects for feed —
// where to resume the feed after a restore. In ShardByGroup mode the
// pool serves a single feed and the feed argument is ignored. Like
// StateCount, call it only between batches.
func (p *Pool) NextFID(feed FeedID) vr.FrameID {
	if p.opts.Mode == ShardByGroup {
		return p.workers[0].eng.next
	}
	if eng, ok := p.workers[p.shardOf(feed)].feeds[feed]; ok {
		return eng.next
	}
	return 0
}
