// Command tvq runs temporal co-occurrence queries over an object-stream
// trace and prints every match.
//
// Usage:
//
//	tvq -q "car >= 1 AND person >= 2" -w 300 -d 240 trace.csv
//	tvq -q "car >= 2" -q "bus >= 1" -w 150 -d 100 -method mfs trace.jsonl
//	tvqgen -dataset M2 | tvq -q "person >= 3" -w 300 -d 240 -
//	tvq -q "person >= 2 @ 600:450" -q "car >= 1" -w 300 -d 240 -workers 2 trace.csv
//	tvq -q "car >= 1" -checkpoint run.tvqsnap -every 500 trace.csv
//	tvq -resume run.tvqsnap trace.csv
//	tvqgen -format binary | tvq -q "person >= 2" -w 300 -d 240 -stream -format binary -
//
// Each -q flag adds one query. A query uses the shared -w/-d parameters
// unless it carries its own "@ window:duration" suffix, as in
// "person >= 2 @ 600:450". The trace format is inferred from the file
// extension (.csv, .jsonl, .tvqf for the binary wire format); stdin
// defaults to CSV unless -format csv|jsonl|binary is given.
//
// By default the whole trace is loaded before processing. With -stream
// the trace is decoded frame by frame through the codec's streaming
// reader and fed straight into the session, so arbitrarily long JSONL
// or binary inputs — including live pipes — process in constant
// memory. (CSV is not streamable: its rows are not frame-ordered.)
// Binary input additionally takes the engine's ownership-transfer fast
// path: decoded frames arrive owned and are retained without a clone.
//
// The command is a thin shell over the v2 Session API: it opens one
// tvq.Session with functional options and streams the trace through it.
// With -workers above 1 the session is pooled, partitioning the
// queries' window groups across engines; matches and their order are
// identical to the single-engine run. Parallelism is bounded by the
// number of distinct window sizes, so give queries different @-windows
// to use more than one worker; the command warns when the session
// clamps.
//
// With -checkpoint the session state is snapshotted to the given path
// every -every frames ("500") or every -every of wall clock ("30s"),
// atomically (written to a temp file and renamed), plus once on exit. A
// killed run is picked up with -resume: the session is restored from
// the snapshot — single-engine or pooled, the file records which —
// already-processed frames of the trace are skipped, and the
// continuation emits exactly the matches the uninterrupted run would
// have emitted. When resuming, queries and engine options are taken
// from the snapshot; -q/-w/-d are ignored, and an explicit -method or
// -workers that disagrees with the snapshot is an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"os"
	"slices"
	"strconv"
	"strings"

	"tvq"
)

type queryFlags []string

func (q *queryFlags) String() string     { return strings.Join(*q, "; ") }
func (q *queryFlags) Set(s string) error { *q = append(*q, s); return nil }

type config struct {
	queries    []string
	window     int
	duration   int
	method     string
	methodSet  bool
	prune      bool
	format     string
	stream     bool
	quiet      bool
	workers    int
	workersSet bool
	checkpoint string
	every      string
	resume     string
	path       string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on the arguments args, writing matches and the
// summary to stdout and diagnostics to stderr; it returns the exit
// status: 2 for a flag error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tvq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queries    queryFlags
		window     = fs.Int("w", 300, "window size in frames")
		duration   = fs.Int("d", 240, "duration threshold in frames")
		method     = fs.String("method", "ssg", "state maintenance: naive, mfs or ssg")
		prune      = fs.Bool("prune", false, "enable result-driven pruning (>=-only query sets)")
		format     = fs.String("format", "", "trace format: csv, jsonl or binary (default: from extension)")
		stream     = fs.Bool("stream", false, "decode the trace frame by frame (jsonl or binary) instead of loading it into memory")
		quiet      = fs.Bool("quiet", false, "print only the match count")
		workers    = fs.Int("workers", 1, "engine shards; above 1 runs a pooled session over the window groups")
		checkpoint = fs.String("checkpoint", "", "snapshot session state to this path periodically (see -every)")
		every      = fs.String("every", "1000", "checkpoint cadence: a frame count (\"500\") or a wall-clock duration (\"30s\")")
		resume     = fs.String("resume", "", "restore session state from this snapshot and continue the trace")
	)
	fs.Var(&queries, "q", "query text (repeatable), e.g. \"car >= 1 AND person >= 2\"; append \"@ w:d\" for a per-query window")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := config{
		queries:    queries,
		window:     *window,
		duration:   *duration,
		method:     *method,
		prune:      *prune,
		format:     *format,
		stream:     *stream,
		quiet:      *quiet,
		workers:    *workers,
		checkpoint: *checkpoint,
		every:      *every,
		resume:     *resume,
		path:       fs.Arg(0),
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "method":
			cfg.methodSet = true
		case "workers":
			cfg.workersSet = true
		}
	})

	if err := query(cfg, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "tvq:", err)
		return 1
	}
	return 0
}

// query runs the configured queries over the trace.
func query(cfg config, stdout, stderr io.Writer) error {
	if len(cfg.queries) == 0 && cfg.resume == "" {
		return fmt.Errorf("no queries; pass at least one -q (or -resume a snapshot)")
	}
	if cfg.path == "" {
		return fmt.Errorf("no trace path; pass a file or - for stdin")
	}

	sess, err := openSession(cfg, stderr)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sess.Close()
		}
	}()

	start := sess.NextFID(0)
	if start > 0 {
		fmt.Fprintf(stderr, "tvq: resumed at frame %d (%d frames already processed)\n", start, start)
	}

	// Assemble the frame source: streamed through the codec's per-frame
	// reader with -stream, or a materialized trace otherwise. frames
	// counts what the session actually processes; srcErr captures a
	// mid-stream decode failure.
	var (
		src    iter.Seq[tvq.Frame]
		frames int
		srcErr error
	)
	if cfg.stream {
		codec, ok := tvq.CodecByName(traceFormat(cfg))
		if !ok {
			return fmt.Errorf("-stream needs a jsonl or binary trace, not %q", traceFormat(cfg))
		}
		in, closeIn, err := openInput(cfg)
		if err != nil {
			return err
		}
		defer closeIn()
		decoded := tvq.DecodeFrames(in, codec, tvq.StandardRegistry())
		src = func(yield func(tvq.Frame) bool) {
			for f, err := range decoded {
				if err != nil {
					srcErr = err
					return
				}
				if f.FID < start { // already processed before the resume
					continue
				}
				frames++
				if !yield(f) {
					return
				}
			}
		}
	} else {
		trace, err := readTrace(cfg)
		if err != nil {
			return err
		}
		if start > int64(trace.Len()) {
			return fmt.Errorf("snapshot has processed %d frames but the trace has only %d", start, trace.Len())
		}
		frames = trace.Len() - int(start)
		src = slices.Values(trace.Frames()[start:])
	}

	ctx := context.Background()
	total := 0
	for f, ms := range sess.Stream(ctx, src) {
		for _, m := range ms {
			total++
			if !cfg.quiet {
				fmt.Fprintf(stdout, "frame %d: %s\n", f.FID, tvq.FormatMatch(m))
			}
		}
	}
	if srcErr != nil {
		return srcErr
	}
	if err := sess.Err(); err != nil {
		return err
	}

	nqueries, method := len(sess.Queries()), sess.Method()
	closed = true
	if err := sess.Close(); err != nil { // writes the final checkpoint
		return err
	}
	fmt.Fprintf(stdout, "%d matches over %d frames (%d queries, method=%s)\n",
		total, frames, nqueries, method)
	return nil
}

// openSession assembles the session options from the flags: a fresh
// Open for a normal run, a Resume when -resume points at a snapshot.
func openSession(cfg config, stderr io.Writer) (*tvq.Session, error) {
	ctx := context.Background()
	opts := []tvq.Option{tvq.WithRegistry(tvq.StandardRegistry())}
	if cfg.checkpoint != "" {
		cadence, err := tvq.ParseCadence(cfg.every)
		if err != nil {
			return nil, err
		}
		opts = append(opts, tvq.WithCheckpoint(cfg.checkpoint, cadence))
	}

	if cfg.resume != "" {
		// Recorded state wins; explicit flags become cross-checks.
		if cfg.methodSet {
			opts = append(opts, tvq.WithMethod(tvq.Method(cfg.method)))
		}
		if cfg.workersSet {
			opts = append(opts, tvq.WithWorkers(cfg.workers))
		}
		f, err := os.Open(cfg.resume)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return tvq.Resume(ctx, f, opts...)
	}

	qs, err := parseQueries(cfg)
	if err != nil {
		return nil, err
	}
	opts = append(opts,
		tvq.WithQueries(qs...),
		tvq.WithMethod(tvq.Method(cfg.method)),
		tvq.WithPruning(cfg.prune),
	)
	if cfg.workers > 1 {
		opts = append(opts, tvq.WithWorkers(cfg.workers), tvq.WithShardMode(tvq.ShardByGroup))
	}
	sess, err := tvq.Open(ctx, opts...)
	if err != nil {
		return nil, err
	}
	if cfg.workers > 1 && sess.Workers() < cfg.workers {
		fmt.Fprintf(stderr,
			"tvq: note: %d workers requested but only %d usable; parallelism is bounded by distinct window sizes — give queries different \"@ w:d\" windows to shard wider\n",
			cfg.workers, sess.Workers())
	}
	return sess, nil
}

func parseQueries(cfg config) ([]tvq.Query, error) {
	var qs []tvq.Query
	for i, text := range cfg.queries {
		text, w, d, err := splitWindowSuffix(text, cfg.window, cfg.duration)
		if err != nil {
			return nil, err
		}
		q, err := tvq.ParseQuery(i+1, text, w, d)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// traceFormat resolves the effective trace format: an explicit -format
// wins, then the file extension, then CSV.
func traceFormat(cfg config) string {
	if cfg.format != "" {
		return cfg.format
	}
	switch {
	case strings.HasSuffix(cfg.path, ".jsonl"):
		return "jsonl"
	case strings.HasSuffix(cfg.path, ".tvqf"):
		return "binary"
	default:
		return "csv"
	}
}

// openInput opens the trace path (or stdin for "-") for reading.
func openInput(cfg config) (io.Reader, func() error, error) {
	if cfg.path == "-" {
		return os.Stdin, func() error { return nil }, nil
	}
	f, err := os.Open(cfg.path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func readTrace(cfg config) (*tvq.Trace, error) {
	in, closeIn, err := openInput(cfg)
	if err != nil {
		return nil, err
	}
	defer closeIn()
	reg := tvq.StandardRegistry()
	format := traceFormat(cfg)
	if format == "csv" {
		return tvq.ReadTraceCSV(in, reg)
	}
	codec, ok := tvq.CodecByName(format)
	if !ok {
		return nil, fmt.Errorf("unknown format %q (want csv, jsonl or binary)", format)
	}
	return codec.ReadTrace(in, reg)
}

// splitWindowSuffix strips an optional "@ w:d" suffix from a -q
// argument, returning the bare query text and its effective window and
// duration (the shared defaults when no suffix is present).
func splitWindowSuffix(text string, defWindow, defDuration int) (string, int, int, error) {
	at := strings.LastIndex(text, "@")
	if at < 0 {
		return text, defWindow, defDuration, nil
	}
	suffix := strings.TrimSpace(text[at+1:])
	ws, ds, ok := strings.Cut(suffix, ":")
	var w, d int
	var werr, derr error
	if ok {
		w, werr = strconv.Atoi(strings.TrimSpace(ws))
		d, derr = strconv.Atoi(strings.TrimSpace(ds))
	}
	if !ok || werr != nil || derr != nil {
		return "", 0, 0, fmt.Errorf("bad window suffix %q (want \"@ window:duration\", e.g. \"@ 600:450\")", suffix)
	}
	return strings.TrimSpace(text[:at]), w, d, nil
}
