// Command tvqd is the tvq serving daemon: a long-running process that
// exposes the Session API over HTTP — batched frame ingest per feed,
// dynamic query subscriptions, and live match streams over SSE or
// chunked JSONL — with Prometheus-style metrics, health checking, and
// graceful, checkpointed shutdown.
//
// Usage:
//
//	tvqd -addr :7800
//	tvqd -addr :7800 -q "car >= 1 AND person >= 2" -w 300 -d 240
//	tvqd -addr :7800 -checkpoint-dir /var/lib/tvqd -every 1000
//	tvqd -addr :7800 -workers 4 -shard feed        # multi-camera pool
//
// Each -q flag subscribes one query on the boot session (named by
// -session, default "default"); a query uses the shared -w/-d
// parameters unless it carries its own "@ window:duration" suffix, as
// in "person >= 2 @ 600:450". Further sessions and queries are managed
// over the API:
//
//	curl -X POST localhost:7800/v1/sessions -d '{"name":"cam-bank","workers":4,"shard":"feed"}'
//	curl -X POST localhost:7800/v1/queries -d '{"query":"car >= 1","window":300,"duration":240}'
//	curl -N localhost:7800/v1/queries/1/stream
//	curl -X POST localhost:7800/v1/feeds/0/frames --data-binary @frames.jsonl
//
// Ingest bodies are decoded per their Content-Type. The default (no
// type, or curl's form-encoded default) is JSON Lines in the trace
// codec's frame format — {"fid":0,"objects":[{"id":1,"class":"car"}]}
// — so `tvqgen` output and WriteTraceJSONL files POST directly. The
// binary wire format (Content-Type: application/x-tvq-frames, see the
// README's wire-protocol section and the tvqclient package) carries
// the same frames in a fraction of the bytes, and its decoded frames
// skip the engine's clone-on-retain. Any other Content-Type is
// answered 415. Frames of a feed must arrive in order; a gap or replay
// is answered 409 with the expected frame id in next_fid, and ingest
// bursts beyond -max-queue waiting batches are answered 429
// (backpressure, not loss). A session created with "disorder": k (or
// the boot -disorder flag) instead absorbs batches whose frames are
// displaced by up to k positions, reassembling them in order; frames
// beyond the bound hit the session's late policy (-late-policy drop or
// error) and are counted in the tvq_late_frames_total metric, with the
// current buffer occupancy in the tvq_reorder_depth gauge.
//
// With -checkpoint-dir every session snapshots to <dir>/<name>.tvqsnap
// on the -every cadence and once at shutdown; a restarted daemon
// resumes each session — cursor, query set, subscriptions — from its
// file, continuing exactly where it stopped. SIGINT/SIGTERM trigger the
// graceful path: streams end, in-flight batches finish, checkpoints are
// written, and the listener drains.
//
// -debug-addr opens a second listener, off by default, that serves
// net/http/pprof under /debug/pprof/ and a text dump of runtime/metrics
// at /debug/metrics. It has its own mux, so the API listener serves
// neither:
//
//	tvqd -addr :7800 -debug-addr 127.0.0.1:7801
//	go tool pprof http://127.0.0.1:7801/debug/pprof/profile?seconds=20
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tvq"
	"tvq/internal/server"
)

type queryFlags []string

func (q *queryFlags) String() string     { return strings.Join(*q, "; ") }
func (q *queryFlags) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(tvqd(os.Args[1:], stop, nil))
}

// tvqd runs the daemon on the command-line arguments args until stop
// delivers a signal, and returns the process's exit status. If
// listening is not nil it is told the addresses of the API listener and
// of the debug listener (nil without -debug-addr) once they are open.
func tvqd(args []string, stop <-chan os.Signal, listening func(api, debug net.Addr)) int {
	fs := flag.NewFlagSet("tvqd", flag.ContinueOnError)
	var (
		queries      queryFlags
		addr         = fs.String("addr", ":7800", "listen address")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof and runtime/metrics on this address (off when empty)")
		window       = fs.Int("w", 300, "default window size for -q queries, in frames")
		duration     = fs.Int("d", 240, "default duration threshold for -q queries, in frames")
		method       = fs.String("method", "ssg", "state maintenance: naive, mfs or ssg")
		workers      = fs.Int("workers", 1, "engine shards for the boot session; above 1 runs a pooled session")
		shard        = fs.String("shard", "feed", "pool sharding for the boot session: feed (multi-camera) or group (window groups)")
		windowMode   = fs.String("window-mode", "sliding", "window semantics: sliding or tumbling")
		disorder     = fs.Int("disorder", 0, "boot session: absorb ingest batches displaced up to this many frames (0 = strict order)")
		latePolicy   = fs.String("late-policy", "", "boot session: what happens to frames beyond the disorder bound: drop or error")
		session      = fs.String("session", "default", "name of the boot session (also the ?session= default)")
		ckDir        = fs.String("checkpoint-dir", "", "snapshot sessions to <dir>/<name>.tvqsnap and resume from them on restart")
		every        = fs.String("every", "1000", "checkpoint cadence: a frame count (\"500\") or a wall-clock duration (\"30s\")")
		maxQueue     = fs.Int("max-queue", 64, "ingest batches queued per session before 429")
		streamBuffer = fs.Int("stream-buffer", 256, "default per-stream delivery buffer (drop-oldest beyond it)")
		heartbeat    = fs.Duration("heartbeat", 15*time.Second, "SSE keep-alive interval (0 disables)")
		drain        = fs.Duration("drain", 10*time.Second, "how long shutdown waits for connections to drain")
	)
	fs.Var(&queries, "q", "query to subscribe on the boot session (repeatable); append \"@ w:d\" for a per-query window")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if err := run(cfg{
		addr: *addr, debugAddr: *debugAddr, queries: queries, window: *window, duration: *duration,
		method: *method, workers: *workers, shard: *shard, windowMode: *windowMode,
		disorder: *disorder, latePolicy: *latePolicy,
		session: *session, ckDir: *ckDir, every: *every,
		maxQueue: *maxQueue, streamBuffer: *streamBuffer,
		heartbeat: *heartbeat, drain: *drain,
	}, stop, listening); err != nil {
		fmt.Fprintln(os.Stderr, "tvqd:", err)
		return 1
	}
	return 0
}

type cfg struct {
	addr, debugAddr           string
	queries                   []string
	window, duration          int
	method, shard, windowMode string
	workers                   int
	disorder                  int
	latePolicy                string
	session, ckDir, every     string
	maxQueue, streamBuffer    int
	heartbeat, drain          time.Duration
}

func run(c cfg, stop <-chan os.Signal, listening func(api, debug net.Addr)) error {
	// Both listeners open before the boot session, so a bad address
	// fails at once; connections wait in the backlog until serving.
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	var debugLn net.Listener
	var debugAddr net.Addr
	if c.debugAddr != "" {
		if debugLn, err = net.Listen("tcp", c.debugAddr); err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer debugLn.Close()
		debugAddr = debugLn.Addr()
	}

	scfg := server.Config{
		Registry:         tvq.StandardRegistry(),
		DefaultSession:   c.session,
		MaxQueuedBatches: c.maxQueue,
		StreamBuffer:     c.streamBuffer,
		Heartbeat:        c.heartbeat,
	}
	if c.ckDir != "" {
		cadence, err := tvq.ParseCadence(c.every)
		if err != nil {
			return err
		}
		scfg.CheckpointDir, scfg.CheckpointEvery = c.ckDir, cadence
	}
	srv := server.New(scfg)

	params := server.SessionParams{Method: c.method, WindowMode: c.windowMode}
	if c.workers > 1 {
		params.Workers, params.Shard = c.workers, c.shard
	}
	params.Disorder, params.LatePolicy = c.disorder, c.latePolicy
	params.Queries, err = parseQueries(c.queries, c.window, c.duration)
	if err != nil {
		return err
	}
	resumed, err := srv.EnsureSession(c.session, params)
	if err != nil {
		return fmt.Errorf("boot session %q: %w", c.session, err)
	}
	if resumed {
		sess, _ := srv.Manager().Get(c.session)
		log.Printf("session %q resumed from checkpoint at frame %d (%d queries)",
			c.session, sess.NextFID(0), len(sess.Queries()))
	} else if n := len(params.Queries); n > 0 {
		log.Printf("session %q opened with %d boot queries", c.session, n)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 2)
	serve := func(s *http.Server, ln net.Listener) {
		if err := s.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}
	log.Printf("tvqd serving on %s", ln.Addr())
	go serve(httpSrv, ln)
	if debugLn != nil {
		debugSrv := &http.Server{Handler: debugHandler()}
		defer debugSrv.Close()
		log.Printf("tvqd debug listener on %s", debugAddr)
		go serve(debugSrv, debugLn)
	}
	if listening != nil {
		listening(ln.Addr(), debugAddr)
	}

	select {
	case err := <-errc:
		srv.Shutdown()
		return err
	case sig := <-stop:
		log.Printf("received %v; draining", sig)
	}

	// Graceful path: end streams and close every session first (each
	// in-flight batch completes and final checkpoints are written), then
	// drain the listener.
	if err := srv.Shutdown(); err != nil {
		log.Printf("session shutdown: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("listener drain: %w", err)
	}
	log.Printf("tvqd stopped cleanly")
	return nil
}

// parseQueries turns the -q flags into query parameters; "text @ w:d"
// overrides the shared -w/-d for one query.
func parseQueries(specs []string, window, duration int) ([]server.QueryParams, error) {
	var out []server.QueryParams
	for _, spec := range specs {
		text, w, d := spec, window, duration
		if at := strings.LastIndex(spec, "@"); at >= 0 {
			wd := strings.TrimSpace(spec[at+1:])
			colon := strings.Index(wd, ":")
			if colon < 0 {
				return nil, fmt.Errorf("query %q: per-query window must be \"@ w:d\"", spec)
			}
			var err error
			if w, err = strconv.Atoi(strings.TrimSpace(wd[:colon])); err != nil {
				return nil, fmt.Errorf("query %q: bad window: %v", spec, err)
			}
			if d, err = strconv.Atoi(strings.TrimSpace(wd[colon+1:])); err != nil {
				return nil, fmt.Errorf("query %q: bad duration: %v", spec, err)
			}
			text = strings.TrimSpace(spec[:at])
		}
		// Validate eagerly so a typo fails at boot, not at first frame.
		if _, err := tvq.ParseQuery(0, text, w, d); err != nil {
			return nil, err
		}
		out = append(out, server.QueryParams{Query: text, Window: w, Duration: d})
	}
	return out, nil
}
