package bench

import (
	"fmt"
	"time"

	"tvq/internal/cnf"
	"tvq/internal/engine"
	"tvq/internal/vr"
)

// MultiFeed materializes the named dataset profile several times with
// distinct seeds — the synthetic stand-in for a bank of cameras all
// watching scenes of the same statistical shape. Every feed uses the
// standard registry, so engines built with default options match.
func (c Config) MultiFeed(name string, feeds int) ([]*vr.Trace, error) {
	if feeds < 1 {
		return nil, fmt.Errorf("bench: need at least one feed, got %d", feeds)
	}
	traces := make([]*vr.Trace, feeds)
	for i := range traces {
		cc := c
		cc.Seed = c.Seed + int64(i)
		ds, err := cc.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		traces[i] = ds.Trace
	}
	return traces, nil
}

// InterleaveFeeds multiplexes several feeds round-robin into one
// ingestion stream, the arrival order a fair multi-camera multiplexer
// would produce. Each frame keeps its per-feed frame id.
func InterleaveFeeds(traces []*vr.Trace) []engine.FeedFrame {
	total := 0
	for _, tr := range traces {
		total += tr.Len()
	}
	out := make([]engine.FeedFrame, 0, total)
	for fi := 0; len(out) < total; fi++ {
		for feed, tr := range traces {
			if fi < tr.Len() {
				out = append(out, engine.FeedFrame{Feed: engine.FeedID(feed), Frame: tr.Frame(fi)})
			}
		}
	}
	return out
}

// runSerial is the single-engine baseline: one engine per feed, every
// frame processed by the one goroutine that calls it. It does the same
// total work as a pool, minus the parallelism.
func runSerial(queries []cnf.Query, opts engine.Options, frames []engine.FeedFrame) (int, error) {
	engines := make(map[engine.FeedID]*engine.Engine)
	matches := 0
	for _, ff := range frames {
		eng, ok := engines[ff.Feed]
		if !ok {
			var err error
			eng, err = engine.New(queries, opts)
			if err != nil {
				return 0, err
			}
			engines[ff.Feed] = eng
		}
		matches += len(eng.ProcessFrame(ff.Frame))
	}
	return matches, nil
}

// runPool drives the same frames through a Pool in ProcessBatch chunks.
func runPool(queries []cnf.Query, popts engine.PoolOptions, frames []engine.FeedFrame) (int, error) {
	p, err := engine.NewPool(queries, popts)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	matches := 0
	for lo := 0; lo < len(frames); lo += engine.DefaultBatch {
		hi := lo + engine.DefaultBatch
		if hi > len(frames) {
			hi = len(frames)
		}
		for _, r := range p.ProcessBatch(frames[lo:hi]) {
			matches += len(r.Matches)
		}
	}
	return matches, nil
}

// ParallelRow is one measured configuration of the scaling experiment.
type ParallelRow struct {
	Label   string  // "serial" or "pool/N"
	Workers int     // 0 for the serial baseline
	Seconds float64 // wall time over the whole interleaved stream
	Speedup float64 // serial Seconds / this row's Seconds
	Matches int     // total matches, for cross-checking row agreement
}

// ParallelScaling is the multi-feed scaling experiment on the named
// dataset: `feeds` synthetic cameras, `queries` mixed CNF queries each,
// the serial baseline first and then the pool at worker counts 1, 2, 4,
// ... up to maxWorkers, all over the same interleaved stream. Every row
// must agree on the total match count; a disagreement is reported as an
// error because it would mean sharding changed results.
func (c Config) ParallelScaling(name string, feeds, queries, maxWorkers int) ([]ParallelRow, error) {
	traces, err := c.MultiFeed(name, feeds)
	if err != nil {
		return nil, err
	}
	qs := MixedWorkload(queries, c.scale(DefaultWindow), c.scale(DefaultDuration), c.Seed)
	frames := InterleaveFeeds(traces)

	start := time.Now()
	serialMatches, err := runSerial(qs, engine.Options{}, frames)
	if err != nil {
		return nil, err
	}
	serial := time.Since(start).Seconds()
	rows := []ParallelRow{{Label: "serial", Seconds: serial, Speedup: 1, Matches: serialMatches}}

	for workers := 1; workers <= maxWorkers; workers *= 2 {
		start := time.Now()
		matches, err := runPool(qs, engine.PoolOptions{Workers: workers, Mode: engine.ShardByFeed}, frames)
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		if matches != serialMatches {
			return nil, fmt.Errorf(
				"bench: pool with %d workers found %d matches, serial found %d", workers, matches, serialMatches)
		}
		rows = append(rows, ParallelRow{
			Label: fmt.Sprintf("pool/%d", workers), Workers: workers, Seconds: secs,
			Speedup: serial / secs, Matches: matches,
		})
	}
	return rows, nil
}
