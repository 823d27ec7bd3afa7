package tvq

import (
	"fmt"
	"strconv"
	"time"

	"tvq/internal/engine"
)

// Option configures a Session at Open or Resume time. Options are
// applied in order; a later option overrides an earlier one.
type Option func(*config) error

// config is the assembled Session configuration.
type config struct {
	queries []Query
	// proc is everything the execution layer is told: engine options,
	// worker count (zero until WithWorkers) and shard mode (Sharded once
	// WithShardMode chose it). Which processor that makes is
	// internal/engine's decision.
	proc       engine.PoolOptions
	pruneSet   bool
	windowsSet bool
	batch      int
	ckPath     string
	ckEvery    Cadence
	subSinks   func(Query) Sink

	disorder    int
	disorderSet bool
	late        LatePolicy
	lateSet     bool
}

func buildConfig(opts []Option) (config, error) {
	var cfg config
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	return cfg, nil
}

// WithQueries registers the session's initial query set. Queries with a
// zero ID are assigned the next free positive id in order. Repeated use
// appends.
func WithQueries(queries ...Query) Option {
	return func(c *config) error {
		c.queries = append(c.queries, queries...)
		return nil
	}
}

// WithQuery registers one initial query; shorthand for WithQueries(q).
func WithQuery(q Query) Option { return WithQueries(q) }

// WithMethod selects the MCOS maintenance strategy (MethodNaive,
// MethodMFS or MethodSSG); the default is MethodSSG.
func WithMethod(m Method) Option {
	return func(c *config) error {
		c.proc.Engine.Method = m
		return nil
	}
}

// WithPruning toggles the §5.3 result-driven pruning strategy. It only
// takes effect when every condition of every query uses ≥, and it makes
// Subscribe unavailable (see ErrPruningIncompatible).
func WithPruning(enabled bool) Option {
	return func(c *config) error {
		c.proc.Engine.Prune = enabled
		c.pruneSet = true
		return nil
	}
}

// WithRegistry names the object classes; the default is
// StandardRegistry(). Pass the same registry to the trace codecs so
// class values agree.
func WithRegistry(reg *Registry) Option {
	return func(c *config) error {
		c.proc.Engine.Registry = reg
		return nil
	}
}

// WithWindowMode selects Sliding (default) or Tumbling window
// semantics.
func WithWindowMode(m WindowMode) Option {
	return func(c *config) error {
		c.proc.Engine.Windows = m
		c.windowsSet = true
		return nil
	}
}

// WithKeepAllClasses disables the §3 class-filter push-down, for
// ablation experiments.
func WithKeepAllClasses() Option {
	return func(c *config) error {
		c.proc.Engine.KeepAllClasses = true
		return nil
	}
}

// WithWorkers sets the number of parallel engine shards. A value above
// one makes the session pooled (see WithShardMode for how work is
// split); one pins it to a single engine unless WithShardMode forces a
// pool.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("tvq: WithWorkers(%d): worker count must be at least 1", n)
		}
		c.proc.Workers = n
		return nil
	}
}

// WithShardMode makes the session pooled and selects how frames are
// distributed: ShardByFeed pins each feed to a worker (multi-camera),
// ShardByGroup partitions one feed's window groups across workers.
func WithShardMode(m ShardMode) Option {
	return func(c *config) error {
		c.proc.Mode = m
		c.proc.Sharded = true
		return nil
	}
}

// WithBatch caps how many frames a pooled session gathers per dispatch
// (Run and Stream use it as their batching granularity); the default is
// 64.
func WithBatch(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("tvq: WithBatch(%d): batch size must be at least 1", n)
		}
		c.batch = n
		return nil
	}
}

// WithCheckpoint snapshots the session to path on the given cadence
// while frames are processed (and once more on Close). Writes are
// atomic — a temp file is written, synced, then renamed — so a crash
// mid-write never clobbers the previous good checkpoint. The snapshot
// records live subscriptions; Resume restores them.
func WithCheckpoint(path string, every Cadence) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("tvq: WithCheckpoint: empty path")
		}
		if every.Frames <= 0 && every.Interval <= 0 {
			return fmt.Errorf("tvq: WithCheckpoint: cadence must set a frame count or an interval")
		}
		c.ckPath = path
		c.ckEvery = every
		return nil
	}
}

// WithDisorderBound installs the reorder stage in front of the
// engines: frames may arrive displaced by up to k positions from
// frame-id order per feed and are buffered (at most k at a time),
// re-sorted, and released in exact order — query answers are identical
// to an in-order run. A frame at or below the feed's watermark (see
// Session.Watermark), a duplicate of a buffered frame, or a gap that
// can no longer fill within the bound hits the late-frame policy
// (WithLatePolicy; LateDrop by default). k=0 installs the stage in
// strict mode: any deviation from the cursor resolves by policy
// instead of an out-of-order rejection. Snapshots record the stage's
// bound, policy, watermark and buffered frames, so Resume continues
// exactly even mid-reassembly.
func WithDisorderBound(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("tvq: WithDisorderBound(%d): bound must be non-negative", k)
		}
		c.disorder = k
		c.disorderSet = true
		return nil
	}
}

// WithLatePolicy selects what happens to frames the disorder bound
// cannot absorb: LateDrop (default) counts and discards them, filling
// unrecoverable gaps with empty frames; LateError fails Process with
// an error wrapping ErrLateFrame. Requires WithDisorderBound at Open;
// at Resume it may also stand alone as a cross-check against the
// recorded policy.
func WithLatePolicy(p LatePolicy) Option {
	return func(c *config) error {
		if p != LateDrop && p != LateError {
			return fmt.Errorf("tvq: WithLatePolicy(%d): unknown policy", p)
		}
		c.late = p
		c.lateSet = true
		return nil
	}
}

// WithObserver installs a per-window-group instrumentation hook: f
// receives one ProcessStat for every window group on every processed
// frame — generator latency, result-state count, match count. The hook
// runs inline on the processing path — in a pooled session on the
// goroutine that runs the frame's shard, a worker's or the caller's —
// and shards run in parallel, so it must be cheap and safe for
// concurrent use; the tvqd daemon's /metrics endpoint is built on it.
// Observers are not recorded in snapshots; pass the option again at
// Resume.
func WithObserver(f func(ProcessStat)) Option {
	return func(c *config) error {
		c.proc.Engine.Observe = f
		return nil
	}
}

// WithSubscriptionSinks supplies, at Resume time, the sink for each
// restored subscription: f is called once per subscription recorded in
// the snapshot with its query, and the returned sink (nil for none)
// receives that subscription's deliveries. Sinks hold live resources —
// channels, writers, callbacks — so they cannot be serialized; this is
// how a resumed session reattaches them.
func WithSubscriptionSinks(f func(Query) Sink) Option {
	return func(c *config) error {
		c.subSinks = f
		return nil
	}
}

// Cadence is a checkpoint cadence: every Frames processed frames,
// and/or every Interval of wall clock — whichever is due first.
type Cadence struct {
	Frames   int
	Interval time.Duration
}

// EveryFrames is a frame-count cadence.
func EveryFrames(n int) Cadence { return Cadence{Frames: n} }

// Every is a wall-clock cadence.
func Every(d time.Duration) Cadence { return Cadence{Interval: d} }

// ParseCadence parses a CLI-shaped cadence: a bare integer is a frame
// count ("500"), anything else must parse as a time.Duration ("30s").
func ParseCadence(s string) (Cadence, error) {
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return Cadence{}, fmt.Errorf("tvq: cadence frame count must be positive, got %d", n)
		}
		return EveryFrames(n), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return Cadence{}, fmt.Errorf("tvq: cadence %q is neither a frame count nor a duration (try \"500\" or \"30s\")", s)
	}
	if d <= 0 {
		return Cadence{}, fmt.Errorf("tvq: cadence duration must be positive, got %v", d)
	}
	return Every(d), nil
}
