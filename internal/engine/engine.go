// Package engine assembles the paper's three-layer architecture
// (Figure 2): the structured relation produced by detection/tracking
// flows through class filtering into per-window-group MCOS generation and
// on to CNF query evaluation. Queries sharing a window size share one
// generator (§3); objects of classes no query asks about are dropped
// before state maintenance.
package engine

import (
	"fmt"
	"sort"
	"time"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/vr"
)

// Method selects the MCOS generation strategy.
type Method string

// The three strategies evaluated in the paper.
const (
	MethodNaive Method = "naive"
	MethodMFS   Method = "mfs"
	MethodSSG   Method = "ssg"
)

// WindowMode selects when query results are produced.
type WindowMode int

// Window semantics (§2; footnote 1 notes tumbling windows as an
// alternative the solution supports equally well).
const (
	// Sliding evaluates queries at every frame over the last w frames.
	Sliding WindowMode = iota
	// Tumbling evaluates queries only when a w-frame block completes,
	// over exactly that block.
	Tumbling
)

// Options configures an Engine.
type Options struct {
	// Method selects the state-maintenance strategy; default MethodSSG.
	Method Method
	// Prune enables the §5.3 result-driven pruning strategy (the _O
	// variants of Figure 9). It only takes effect when every condition
	// of every query uses ≥; otherwise it is ignored.
	Prune bool
	// Registry names the object classes; default vr.StandardRegistry().
	Registry *vr.Registry
	// KeepAllClasses disables the class-filter push-down of §3, for
	// ablation experiments.
	KeepAllClasses bool
	// Windows selects sliding (default) or tumbling window semantics.
	Windows WindowMode
	// Observe, when non-nil, receives one ProcessStat per window group
	// per processed frame — the serving layer's hook for per-generator
	// latency and throughput metrics. It runs inline on the processing
	// path, on whichever goroutine runs the engine's frame: the caller's,
	// or in a pool a worker's or (for a batch that maps to one shard) the
	// pool caller's. Shards run in parallel, so it must be cheap and safe
	// for concurrent use. Observers hold live resources and are not
	// recorded in snapshots; pass the option again when restoring.
	Observe func(ProcessStat)
}

// ProcessStat describes one window group's share of one ProcessFrame
// call, for Options.Observe.
type ProcessStat struct {
	// Window is the group's window size, identifying the generator.
	Window int
	// States is the number of result states the generator emitted.
	States int
	// Matches is the number of query matches evaluated from them (zero
	// on non-boundary frames in tumbling mode, where evaluation is
	// skipped).
	Matches int
	// Elapsed is the wall-clock cost of the generator's Process call
	// plus query evaluation.
	Elapsed time.Duration
}

// group is one window-size group: an evaluator plus its generator.
type group struct {
	window int
	eval   *query.Evaluator
	gen    core.Generator
	keep   map[vr.Class]bool
	// start is the engine frame id at which the group's generator saw
	// its first frame; zero for groups present since construction.
	start vr.FrameID
}

// Engine evaluates a fixed set of CNF temporal queries over a video feed.
type Engine struct {
	opts    Options
	groups  []*group
	classOf func(objset.ID) vr.Class
	classes map[objset.ID]vr.Class
	next    vr.FrameID
}

// New builds an engine for the given queries. Queries are grouped by
// window size; each group gets its own MCOS generator whose duration
// push-down is the group's minimum duration.
//
// An empty query set is valid — the engine consumes frames, maintains
// the feed-wide class table and produces no matches — so a long-running
// session can start idle and receive all of its queries dynamically via
// AddQuery. Duplicate query ids return an error wrapping
// ErrDuplicateQuery.
func New(queries []cnf.Query, opts Options) (*Engine, error) {
	seen := make(map[int]bool, len(queries))
	for _, q := range queries {
		if seen[q.ID] {
			return nil, fmt.Errorf("engine: query id %d: %w", q.ID, ErrDuplicateQuery)
		}
		seen[q.ID] = true
	}
	if opts.Method == "" {
		opts.Method = MethodSSG
	}
	switch opts.Method {
	case MethodNaive, MethodMFS, MethodSSG:
	default:
		// Validate eagerly: with an empty query set no generator is
		// built, so the per-group check in newGenerator never runs.
		return nil, fmt.Errorf("engine: unknown method %q", opts.Method)
	}
	if opts.Registry == nil {
		opts.Registry = vr.StandardRegistry()
	}

	byWindow := make(map[int][]cnf.Query)
	for _, q := range queries {
		byWindow[q.Window] = append(byWindow[q.Window], q)
	}
	windows := make([]int, 0, len(byWindow))
	for w := range byWindow {
		windows = append(windows, w)
	}
	sort.Ints(windows)

	e := &Engine{
		opts:    opts,
		classes: make(map[objset.ID]vr.Class),
	}
	e.classOf = func(id objset.ID) vr.Class { return e.classes[id] }

	for _, w := range windows {
		g, err := e.newGroup(byWindow[w])
		if err != nil {
			return nil, err
		}
		e.groups = append(e.groups, g)
	}
	return e, nil
}

// newGroup builds one window group over queries that share a window size.
func (e *Engine) newGroup(queries []cnf.Query) (*group, error) {
	ev, err := query.NewEvaluator(e.opts.Registry, queries)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(e.opts.Method, e.groupConfig(ev))
	if err != nil {
		return nil, err
	}
	g := &group{window: ev.Window(), eval: ev, gen: gen}
	e.setClassFilter(g)
	return g, nil
}

// groupConfig derives a group's generator configuration from its
// evaluator: the group's window, the minimum duration push-down, and —
// under §5.3 pruning — the termination predicate. Snapshot restore uses
// the same derivation so a restored group's generator behaves exactly
// like the one it replaces.
func (e *Engine) groupConfig(ev *query.Evaluator) core.Config {
	cfg := core.Config{Window: ev.Window(), Duration: ev.MinDuration()}
	if e.opts.Prune {
		cfg.Terminate = ev.TerminatePredicate(e.classOf)
	}
	return cfg
}

// setClassFilter installs the §3 class push-down unless disabled or the
// group's queries carry identity constraints (an identity's class is
// unknown until the object appears, so no class may be dropped).
func (e *Engine) setClassFilter(g *group) {
	g.keep = nil
	if e.opts.KeepAllClasses {
		return
	}
	for _, q := range g.eval.Queries() {
		if q.HasIdentity() {
			return
		}
	}
	g.keep = g.eval.Classes()
}

func newGenerator(m Method, cfg core.Config) (core.Generator, error) {
	switch m {
	case MethodNaive:
		return core.NewNaive(cfg), nil
	case MethodMFS:
		return core.NewMFS(cfg), nil
	case MethodSSG:
		return core.NewSSG(cfg), nil
	default:
		return nil, fmt.Errorf("engine: unknown method %q", m)
	}
}

// ProcessFrame consumes the next frame of the feed (ids must be
// consecutive from 0) and returns all query matches for the windows
// ending at this frame. The returned matches are caller-owned and stay
// valid as further frames are processed. For a borrowed frame (the
// default) the engine retains no alias into f, so the caller may reuse
// the frame's backing storage; when f.Owned is true the caller
// transfers the object set's storage to the engine and must not mutate
// or reuse it (see the ownership notes on core.Generator and vr.Frame).
// Sets are immutable once constructed, so one owned set is safely
// shared read-only across all window groups.
func (e *Engine) ProcessFrame(f vr.Frame) []query.Match {
	if f.FID != e.next {
		panic(fmt.Sprintf("engine: frame %d out of order (want %d)", f.FID, e.next))
	}
	e.next++
	// Range, not IDs(): frame sets may arrive in the dense bitmap
	// representation, where IDs() materializes a fresh slice per call.
	f.Objects.Range(func(id objset.ID) bool {
		e.classes[id] = f.Classes[id]
		return true
	})

	var out []query.Match
	for _, g := range e.groups {
		gf := f
		if g.keep != nil {
			fo, fresh := filterSet(f.Objects, f.Classes, g.keep)
			gf.Objects = fo
			if fresh {
				// The filtered set is a private allocation nothing else
				// references, so the generator may keep it without a clone
				// even when the input frame was borrowed.
				gf.Owned = true
			}
		}
		gf.FID = f.FID - g.start
		var began time.Time
		if e.opts.Observe != nil {
			began = time.Now()
		}
		// states is only valid until the group's next Process call
		// (generators reuse emission buffers and recycle dead states);
		// no Match retains a state. Its frame list is the evaluator's,
		// already in engine numbering (generators number frames from
		// zero, the group began at g.start), shared read-only by that
		// state's matches, and never written where a match can see it
		// (query.Match.Frames) — which is what makes the returned matches
		// durable past this call (see the ownership notes on
		// core.Generator).
		states := g.gen.Process(gf)
		var matches []query.Match
		if e.opts.Windows != Tumbling || (gf.FID+1)%vr.FrameID(g.window) == 0 {
			matches = g.eval.EvaluateStatesFrom(states, e.classOf, g.start)
		}
		if e.opts.Observe != nil {
			e.opts.Observe(ProcessStat{
				Window:  g.window,
				States:  len(states),
				Matches: len(matches),
				Elapsed: time.Since(began),
			})
		}
		// The evaluator's slice is fresh, exactly sized and the caller's:
		// with one contributing group it is the result as it stands, and
		// a second group's append cannot write into it.
		if len(out) == 0 {
			out = matches
		} else {
			out = append(out, matches...)
		}
	}
	return out
}

// filterSet keeps only ids whose class is in keep. It reports whether
// the result is a fresh allocation (some id was dropped) rather than
// the input set itself, which decides ownership of the filtered frame.
// A set it drops nothing from, the common case when a group's queries
// name every class the feed carries, costs a scan and no allocation.
func filterSet(s objset.Set, classes map[objset.ID]vr.Class, keep map[vr.Class]bool) (objset.Set, bool) {
	var kept []objset.ID // nil until an id is dropped
	n := 0               // ids kept before the first dropped one
	s.Range(func(id objset.ID) bool {
		switch {
		case !keep[classes[id]]:
			if kept == nil {
				kept = s.AppendTo(make([]objset.ID, 0, s.Len()))[:n]
			}
		case kept != nil:
			kept = append(kept, id)
		default:
			n++
		}
		return true
	})
	if kept == nil {
		return s, false
	}
	return objset.FromSorted(kept), true
}

// FrameResult pairs a frame id with its matches, for batch runs.
type FrameResult struct {
	FID     vr.FrameID
	Matches []query.Match
}

// StateCount reports the total number of live states across all window
// groups, for instrumentation.
func (e *Engine) StateCount() int {
	n := 0
	for _, g := range e.groups {
		n += g.gen.StateCount()
	}
	return n
}

// NextFID returns the id of the next frame the engine expects — equal to
// the number of feed frames processed so far. After a snapshot restore
// it tells the caller where to resume the feed. An engine serves one
// feed, so the argument is ignored.
func (e *Engine) NextFID(FeedID) vr.FrameID { return e.next }

// Method returns the state maintenance strategy the engine runs.
func (e *Engine) Method() Method { return e.opts.Method }

// Pruned reports whether the §5.3 result-driven pruning strategy is
// enabled.
func (e *Engine) Pruned() bool { return e.opts.Prune }

// WindowMode reports the engine's window semantics.
func (e *Engine) WindowMode() WindowMode { return e.opts.Windows }
