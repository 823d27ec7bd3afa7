package bench

import (
	"fmt"
	"io"
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
	Label     string  // "serial" or "pool/N"
	Workers   int     // 0 for the serial baseline
	Seconds   float64 // wall time over the whole interleaved stream
	FramesSec float64 // total frames / Seconds
	Speedup   float64 // serial Seconds / this row's Seconds
	Matches   int     // total matches, for cross-checking row agreement
}

// ParallelReport is the multi-feed scaling experiment: the serial
// baseline plus the pool at increasing worker counts, all over the same
// interleaved multi-camera stream.
type ParallelReport struct {
	Dataset string
	Feeds   int
	Queries int
	Frames  int // total frames across all feeds
	Rows    []ParallelRow
}

// ParallelScaling measures multi-feed throughput on the named dataset:
// `feeds` synthetic cameras, `queries` mixed CNF queries each, serial
// versus pool at worker counts 1, 2, 4, ... up to maxWorkers. Every row
// must agree on the total match count; a disagreement is reported as an
// error because it would mean sharding changed results.
func (c Config) ParallelScaling(name string, feeds, queries, maxWorkers int) (ParallelReport, error) {
	traces, err := c.MultiFeed(name, feeds)
	if err != nil {
		return ParallelReport{}, err
	}
	qs := MixedWorkload(queries, c.scale(DefaultWindow), c.scale(DefaultDuration), c.Seed)
	frames := InterleaveFeeds(traces)
	rep := ParallelReport{Dataset: name, Feeds: feeds, Queries: queries, Frames: len(frames)}

	start := time.Now()
	serialMatches, err := runSerial(qs, engine.Options{}, frames)
	if err != nil {
		return ParallelReport{}, err
	}
	serial := time.Since(start).Seconds()
	rep.Rows = append(rep.Rows, ParallelRow{
		Label: "serial", Seconds: serial,
		FramesSec: float64(len(frames)) / serial, Speedup: 1, Matches: serialMatches,
	})

	for workers := 1; workers <= maxWorkers; workers *= 2 {
		start := time.Now()
		matches, err := runPool(qs, engine.PoolOptions{Workers: workers, Mode: engine.ShardByFeed}, frames)
		if err != nil {
			return ParallelReport{}, err
		}
		secs := time.Since(start).Seconds()
		if matches != serialMatches {
			return ParallelReport{}, fmt.Errorf(
				"bench: pool with %d workers found %d matches, serial found %d", workers, matches, serialMatches)
		}
		rep.Rows = append(rep.Rows, ParallelRow{
			Label: fmt.Sprintf("pool/%d", workers), Workers: workers, Seconds: secs,
			FramesSec: float64(len(frames)) / secs, Speedup: serial / secs, Matches: matches,
		})
	}
	return rep, nil
}

// Render writes the scaling report as an aligned text table.
func (r ParallelReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== Parallel scaling: %s x %d feeds, %d queries, %d frames ==\n",
		r.Dataset, r.Feeds, r.Queries, r.Frames); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s%12s%14s%10s%10s\n", "config", "seconds", "frames/sec", "speedup", "matches")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s%12.4f%14.0f%10.2f%10d\n",
			row.Label, row.Seconds, row.FramesSec, row.Speedup, row.Matches)
	}
	return nil
}
