package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tvq"
	"tvq/internal/cnf"
	"tvq/internal/reorder"
	"tvq/internal/vr"
	"tvq/tvqclient"
)

// serve-disorder: eight bounded-shuffled feeds sent to a child tvqd over
// one connection in binary 8-frame batches, round-robin, while a second
// connection reads query 1's JSONL match stream. Every pass opens its
// own session on the daemon, sends the first part of every feed as fast
// as acks return (phase A, closed loop: throughput) and the rest on a
// fixed schedule (phase B, open loop: latency from the time a frame was
// due).
const (
	serveFeeds  = 8
	serveK      = 8.0 // D1×8 per feed: 9200 frames
	serveBound  = 8   // shuffle displacement = the session's disorder bound
	serveBatch  = 8
	closedShare = 0.65 // share of every feed sent in phase A

	// openLoopRate is phase B's schedule in frames/s, frozen at about
	// 40% of what phase A sustains on the commit that added the
	// benchmark.
	openLoopRate = 8000.0
)

var serveQueries = []tvqclient.QueryParams{
	{ID: 1, Query: "bus >= 1", Window: 30, Duration: 15},
	{ID: 2, Query: "bus >= 2", Window: 60, Duration: 30},
}

type serve struct {
	cfg    *config
	bin    string
	traces []*vr.Trace
	feeds  [][]vr.Frame // per feed, in arrival order
	steps  int          // batches per feed
	stepsA int          // of which phase A sends this many
	daemon *daemon
	ref    *serveRef
	passes int
}

// serveRef is what an in-process session makes of the same frames in
// order: the lines the served stream must reproduce, feed by feed.
type serveRef struct {
	out        []outDigest
	lines      int64
	matches    int64 // both queries
	nsPerFrame float64
}

func (w *serve) close() { w.daemon.stop() }

// setup generates and shuffles the feeds and starts the daemon.
func (w *serve) setup(ctx context.Context) error {
	w.daemon.stop()
	w.daemon, w.ref = nil, nil
	reg := tvq.StandardRegistry()
	w.traces, w.feeds = w.traces[:0], w.feeds[:0]
	for f := 0; f < serveFeeds; f++ {
		// Each feed has its own clips, in pool order so that both phases
		// see the same frames whatever the seed; the seed displaces every
		// frame by at most serveBound positions.
		t, err := sceneTrace("D1", serveK*w.cfg.scale, w.cfg.scenes*100+int64(f), nil, reg)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(w.cfg.seed*1000 + int64(f)))
		w.traces = append(w.traces, t)
		w.feeds = append(w.feeds, reorder.Shuffle(t.Frames(), serveBound, rng))
	}
	w.steps = (len(w.feeds[0]) + serveBatch - 1) / serveBatch
	w.stepsA = max(1, int(closedShare*float64(w.steps)))
	d, err := startDaemon(ctx, w.bin)
	if err != nil {
		return err
	}
	w.daemon = d
	return nil
}

func (w *serve) inputDigests() []string {
	out := make([]string, len(w.traces))
	for i, t := range w.traces {
		out[i] = framesDigest(w.feeds[i], t, tvq.StandardRegistry())
	}
	return out
}

// batch returns the frames feed f sends at step s.
func (w *serve) batch(feed [][]vr.Frame, f, s int) []vr.Frame {
	lo := s * serveBatch
	return feed[f][lo:min(lo+serveBatch, len(feed[f]))]
}

func (w *serve) totalFrames() int {
	n := 0
	for _, f := range w.feeds {
		n += len(f)
	}
	return n
}

func (w *serve) queries() []cnf.Query {
	var out []cnf.Query
	for _, qp := range serveQueries {
		out = append(out, tvq.MustQuery(qp.ID, qp.Query, qp.Window, qp.Duration))
	}
	return out
}

// reference runs the frames in order through an in-process session of
// the daemon's shape and keeps query 1's lines per feed.
func (w *serve) reference(ctx context.Context) (*serveRef, error) {
	ref := &serveRef{out: make([]outDigest, serveFeeds)}
	sinks := make([]*tvq.JSONLSink, serveFeeds)
	for i := range sinks {
		sinks[i] = tvq.NewJSONLSink(&ref.out[i])
	}
	s, err := tvq.Open(ctx, tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByFeed))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	qs := w.queries()
	perFeed := tvq.SinkFunc(func(d tvq.Delivery) error { return sinks[d.Feed].Deliver(d) })
	if _, err := s.Subscribe(qs[0], tvq.WithSink(perFeed)); err != nil {
		return nil, err
	}
	if _, err := s.Subscribe(qs[1]); err != nil {
		return nil, err
	}
	inOrder := make([][]vr.Frame, serveFeeds)
	for f, t := range w.traces {
		inOrder[f] = t.Frames()
	}
	batch := make([]tvq.FeedFrame, 0, serveBatch)
	start := w.cfg.clk.now()
	for step := 0; step < w.steps; step++ {
		for f := 0; f < serveFeeds; f++ {
			batch = batch[:0]
			for _, fr := range w.batch(inOrder, f, step) {
				batch = append(batch, tvq.FeedFrame{Feed: tvq.FeedID(f), Frame: fr})
			}
			results, err := s.Process(batch)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				ref.matches += int64(len(r.Matches))
			}
		}
	}
	ref.nsPerFrame = float64(w.cfg.clk.now()-start) / float64(w.totalFrames())
	for _, o := range ref.out {
		ref.lines += o.writes
	}
	return ref, nil
}

// chunks encodes the first steps batches of every feed as the client
// would, in sending order, for the replay.
func (w *serve) chunks(steps int) ([]chunk, error) {
	reg := tvq.StandardRegistry()
	var out []chunk
	for s := 0; s < steps; s++ {
		for f := 0; f < serveFeeds; f++ {
			frames := w.batch(w.feeds, f, s)
			data, err := encodeTVQF(frames, reg)
			if err != nil {
				return nil, err
			}
			out = append(out, chunk{feed: f, data: data, frames: len(frames)})
		}
	}
	return out, nil
}

func (w *serve) replaySpec(chunks []chunk, method tvq.Method) replaySpec {
	qs := w.queries()
	return replaySpec{
		chunks: chunks, feeds: serveFeeds, bound: serveBound,
		groups: [][]cnf.Query{{qs[0]}, {qs[1]}}, method: method, limit: chunkFrames(chunks), clk: w.cfg.clk,
	}
}

// verify checks the replay against the in-process reference on every
// frame, and the three generators against one another on a prefix. The
// served stream is checked against the same reference in every pass.
func (w *serve) verify(ctx context.Context) error {
	ref, err := w.reference(ctx)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	w.ref = ref
	all, err := w.chunks(w.steps)
	if err != nil {
		return err
	}
	full, err := replay(w.replaySpec(all, defaultMethod))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for f := range full.out {
		if full.out[f] != ref.out[f] {
			return fmt.Errorf("feed %d: replay wrote %v, the in-process session %v", f, full.out[f], ref.out[f])
		}
	}
	prefix := all[:min(len(all), serveFeeds*max(1, w.steps/8))]
	var first []outDigest
	for _, m := range methods {
		got, err := replay(w.replaySpec(prefix, m))
		if err != nil {
			return fmt.Errorf("replay %s: %w", m, err)
		}
		if first == nil {
			first = got.out
			continue
		}
		for f := range got.out {
			if got.out[f] != first[f] {
				return fmt.Errorf("feed %d: %s wrote %v, %s %v", f, m, got.out[f], methods[0], first[f])
			}
		}
	}
	return nil
}

// arrival is one line of the match stream and when it came.
type arrival struct {
	d  tvq.Delivery
	at int64
}

// servePass is what a pass measured beyond the common passStats.
type servePass struct {
	passStats
	rtt         []int64 // ns per ingest call
	sendLate    []int64 // ns the open-loop sender ran behind its schedule
	backlog     int64   // frames due but not acked when phase B's schedule ended
	wire        *wireCounts
	streamBytes int64
	metrics     map[string]float64 // daemon /metrics deltas over the pass
	cpuSeconds  float64
	peakRSSMB   float64
}

func (w *serve) pass(ctx context.Context, log *spanLog) (*servePass, error) {
	clk := w.cfg.clk
	w.passes++
	name := fmt.Sprintf("pass%d", w.passes)
	wire := &wireCounts{ready: make(chan struct{}), log: log, clk: clk}
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	wire.base = transport
	hc := &http.Client{Transport: wire}
	c := tvqclient.New(w.daemon.base, tvqclient.WithSession(name), tvqclient.WithBatch(serveBatch),
		tvqclient.WithHTTPClient(hc), tvqclient.WithStreamBuffer(1<<16))

	before, err := w.daemon.scrape(ctx, hc)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	usage := w.daemon.usage()
	if _, err := c.CreateSession(ctx, name, tvqclient.SessionParams{
		Workers: 2, Shard: "feed", Disorder: serveBound, Queries: serveQueries,
	}); err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	defer c.DeleteSession(context.WithoutCancel(ctx), name)

	sp := &servePass{wire: wire}
	total := w.totalFrames()
	due := make([][]int64, serveFeeds) // per feed and frame id: when it was due, 0 in phase A
	for f := range due {
		due[f] = make([]int64, len(w.feeds[f]))
	}
	arrivals := make([]arrival, 0, w.ref.lines+16)

	// The reader owns arrivals until readerDone closes.
	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	readerDone := make(chan error, 1)
	go func() {
		var err error
		for d, serr := range c.Stream(streamCtx, serveQueries[0].ID) {
			if serr != nil {
				err = serr
				break
			}
			arrivals = append(arrivals, arrival{d, clk.now()})
		}
		readerDone <- err
	}()
	select {
	case <-wire.ready:
	case err := <-readerDone:
		return nil, fmt.Errorf("match stream ended before it was attached: %v", err)
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("match stream not attached after 10s")
	}

	runtime.GC()
	memStart := readMem()
	var matches int64
	send := func(f, step int) error {
		frames := w.batch(w.feeds, f, step)
		span := -1
		t0 := clk.now()
		if log != nil {
			span = log.add("client.ingest", int64(step*serveFeeds+f), t0, t0, -1)
			wire.parent.Store(int64(span))
		}
		res, err := c.Ingest(ctx, tvq.FeedID(f), frames)
		t1 := clk.now()
		if err != nil {
			return fmt.Errorf("feed %d batch %d: %w", f, step, err)
		}
		if res.Accepted != len(frames) {
			return fmt.Errorf("feed %d batch %d: %d of %d frames accepted", f, step, res.Accepted, len(frames))
		}
		if log != nil {
			log.setEnd(span, t1)
		}
		matches += int64(res.Matches)
		sp.rtt = append(sp.rtt, t1-t0)
		sp.counts.Batches++
		return nil
	}

	// Phase A: closed loop.
	startA := clk.now()
	framesA := 0
	for step := 0; step < w.stepsA; step++ {
		for f := 0; f < serveFeeds; f++ {
			if err := send(f, step); err != nil {
				return nil, err
			}
			framesA += len(w.batch(w.feeds, f, step))
		}
	}
	sp.rateFrames, sp.rateNS = framesA, clk.now()-startA
	sp.rateSamples = append([]int64(nil), sp.rtt...)

	// Phase B: open loop. Batch j is due at startB + j×interval whatever
	// happened to the batches before it.
	interval := int64(float64(serveBatch) / openLoopRate * 1e9)
	startB := clk.now() + interval
	var acks []int64
	j := int64(0)
	for step := w.stepsA; step < w.steps; step++ {
		for f := 0; f < serveFeeds; f++ {
			dueAt := startB + j*interval
			j++
			for _, fr := range w.batch(w.feeds, f, step) {
				due[f][fr.FID] = dueAt
			}
			waitUntil(clk, dueAt)
			sp.sendLate = append(sp.sendLate, clk.now()-dueAt)
			if err := send(f, step); err != nil {
				return nil, err
			}
			acks = append(acks, clk.now())
		}
	}
	scheduleEnd := startB + j*interval
	for i := len(acks) - 1; i >= 0 && acks[i] > scheduleEnd; i-- {
		sp.backlog += serveBatch
	}

	// Every frame is acked, so every match is in the stream's buffer;
	// cancelling the subscription ends the stream after it is drained.
	if err := c.Unsubscribe(ctx, serveQueries[0].ID); err != nil {
		return nil, fmt.Errorf("unsubscribe: %w", err)
	}
	select {
	case err := <-readerDone:
		if err != nil {
			return nil, fmt.Errorf("match stream: %w", err)
		}
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("match stream did not end 30s after the last ack")
	}
	sp.elapsedNS = clk.now() - startA
	sp.mem = readMem().since(memStart)
	sp.frames = total
	sp.matches = matches
	sp.wireBytes = wire.bodyBytes.Load()
	sp.streamBytes = wire.streamBytes.Load()

	// Digest what arrived feed by feed and compare with the reference;
	// take the latency of every line whose frame was due in phase B.
	got := make([]outDigest, serveFeeds)
	sinks := make([]*tvq.JSONLSink, serveFeeds)
	for f := range sinks {
		sinks[f] = tvq.NewJSONLSink(&got[f])
	}
	for _, a := range arrivals {
		_ = sinks[a.d.Feed].Deliver(a.d) // writes to memory; cannot fail
		if at := due[a.d.Feed][a.d.FID]; at != 0 {
			sp.lat = append(sp.lat, a.at-at)
		}
		if log != nil {
			log.add("stream.line", a.d.FID, a.at, a.at, -1)
		}
	}
	for f := range got {
		sp.out.crc ^= got[f].crc + uint32(f)
		sp.out.bytes += got[f].bytes
		sp.out.writes += got[f].writes
		if got[f] != w.ref.out[f] {
			sp.failed++
			fmt.Fprintf(w.cfg.stderr, "serve-disorder: feed %d streamed %v, the in-process session wrote %v\n", f, got[f], w.ref.out[f])
		}
	}
	if matches != w.ref.matches {
		sp.failed++
		fmt.Fprintf(w.cfg.stderr, "serve-disorder: acks report %d matches, the in-process session made %d\n", matches, w.ref.matches)
	}

	after, err := w.daemon.scrape(ctx, hc)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	sp.metrics = make(map[string]float64)
	for k, v := range after {
		sp.metrics[k] = v - before[k]
	}
	used := w.daemon.usage()
	sp.cpuSeconds, sp.peakRSSMB = used.cpuSeconds-usage.cpuSeconds, used.peakRSSMB
	sp.failed += int64(sp.metrics["tvq_late_frames_total"] + sp.metrics["tvq_stream_dropped_total"] + sp.metrics["tvq_ingest_rejected_total"])
	sp.failed += wire.status409.Load() + wire.status429.Load() + wire.status5xx.Load()
	sp.counts.Frames = int64(total)
	sp.counts.Subscribes, sp.counts.Cancels = int64(len(serveQueries)), 1
	sp.counts.Deliveries = int64(len(arrivals))
	return sp, nil
}

// waitUntil sleeps until shortly before the deadline and yields through
// the rest: a plain sleep overshoots by more than a batch interval.
func waitUntil(clk clock, deadline int64) {
	for {
		left := deadline - clk.now()
		switch {
		case left <= 0:
			return
		case left > 300_000:
			time.Sleep(time.Duration(left - 200_000))
		default:
			runtime.Gosched()
		}
	}
}

// wireCounts sits under tvqclient as its http.RoundTripper and counts
// what crosses the wire: ingest requests, their bodies and statuses,
// and the bytes of the match stream.
type wireCounts struct {
	base http.RoundTripper
	log  *spanLog
	clk  clock

	posts, bodyBytes, streamBytes   atomic.Int64
	status409, status429, status5xx atomic.Int64
	parent                          atomic.Int64 // span of the ingest call in flight
	ready                           chan struct{}
	readyOnce                       sync.Once
}

func (w *wireCounts) RoundTrip(req *http.Request) (*http.Response, error) {
	ingest := req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/frames")
	t0 := w.clk.now()
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch {
	case ingest:
		w.posts.Add(1)
		w.bodyBytes.Add(req.ContentLength)
		switch {
		case resp.StatusCode == http.StatusConflict:
			w.status409.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests:
			w.status429.Add(1)
		case resp.StatusCode >= 500:
			w.status5xx.Add(1)
		}
		if w.log != nil {
			w.log.add("http.post", int64(w.posts.Load()-1), t0, w.clk.now(), int(w.parent.Load()))
		}
	case strings.HasSuffix(req.URL.Path, "/stream"):
		// The daemon attaches the stream's tap before it answers, so
		// frames sent from here on reach the stream.
		resp.Body = &countingBody{resp.Body, &w.streamBytes}
		w.readyOnce.Do(func() { close(w.ready) })
	}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
