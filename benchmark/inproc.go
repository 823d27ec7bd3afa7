package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"tvq"
	"tvq/internal/cnf"
	"tvq/internal/vr"
)

// The three in-process workloads share one driver: TVQF bytes decoded
// by tvq.DecodeFrames into Session.ProcessFrame, every query a
// subscription that delivers JSON lines. They differ in the input, the
// query set, and what happens around the frames.
//
// Frozen sizes. The issue sized passes at ten seconds and more (V2×30,
// M1×20, D2×10); the driver's time cap leaves a run about half a minute
// for set-up, verification and at least three passes, so every k is cut
// to what makes a pass last about five seconds on the commit that added
// the benchmark.
const (
	denseK  = 12.0 // 12 V2 clips: 20400 frames
	sparseK = 6.0  // 6 M1 clips: 7164 frames
	churnK  = 2.0  // 2 D2 clips: 2290 frames

	sparseSubs    = 1000
	sparseBodies  = 32
	churnBodies   = 64
	churnEvery    = 100 // frames between one Subscribe + one Cancel
	churnKeep     = 10  // dynamic subscriptions kept alive
	snapshotEvery = 500 // frames between Session.Snapshot calls
	resumeReps    = 5
	tapBuffer     = 1 << 14 // deliveries one frame may fan out before a tap drops
	dynamicIDBase = 1000    // ids of churned subscriptions start here
)

type inproc struct {
	name    string
	cfg     *config
	profile string
	k       float64
	fanout  bool
	pooled  bool
	// clipsInOrder keeps the clips in pool order whatever the seed.
	// churn-checkpoint ties what joins, leaves and is checkpointed to
	// frame numbers, so the order of its clips would change how much a
	// pass writes; only its query ids follow the seed.
	clipsInOrder bool
	verifyN      int // frames the verification pass covers: the windows must turn over in them
	build        func(w *inproc, pool, seed *rand.Rand) error

	trace    *vr.Trace
	tvqf     []byte
	standing []cnf.Query
	groups   [][]cnf.Query // the standing queries by window group; groups[0] is what the replay must reproduce
	churn    *churnPlan
}

// churnPlan is the subscribe/cancel/checkpoint schedule of
// churn-checkpoint.
type churnPlan struct {
	catalogue        []cnf.Query
	every, snapEvery int
}

func newInproc(name string, cfg *config) *inproc {
	switch name {
	case "dense-static":
		return &inproc{name: name, cfg: cfg, profile: "V2", k: denseK, verifyN: 750, build: buildDense}
	case "sparse-fanout":
		return &inproc{name: name, cfg: cfg, profile: "M1", k: sparseK, fanout: true, verifyN: 300, build: buildSparse}
	case "churn-checkpoint":
		return &inproc{name: name, cfg: cfg, profile: "D2", k: churnK, pooled: true, clipsInOrder: true, verifyN: 450, build: buildChurn}
	}
	return nil
}

func buildDense(w *inproc, pool, seed *rand.Rand) error {
	w.standing = queriesFrom(mixedBodies(30, pool), 300, 240, 1, seed)
	w.groups = [][]cnf.Query{w.standing}
	return nil
}

func buildSparse(w *inproc, pool, seed *rand.Rand) error {
	catalogue := geBodies(sparseBodies, 1, 3, pool)
	subs := make([][]cnf.Disjunction, sparseSubs)
	for i := range subs {
		subs[i] = catalogue[i%len(catalogue)]
	}
	w.standing = queriesFrom(subs, 60, 30, 1, seed)
	w.groups = [][]cnf.Query{w.standing}
	return nil
}

func buildChurn(w *inproc, pool, seed *rand.Rand) error {
	long := queriesFrom(mixedBodies(10, pool), 300, 240, 1, seed)
	short := queriesFrom(mixedBodies(10, pool), 150, 120, 11, seed)
	if !coversAllClasses(long) || !coversAllClasses(short) {
		return fmt.Errorf("churn-checkpoint: scene pool %d leaves a class unnamed by a standing window group", w.cfg.scenes)
	}
	w.standing = append(append([]cnf.Query{}, long...), short...)
	w.groups = [][]cnf.Query{long, short}
	// Half the catalogue joins the w=300 group and only patches its
	// plan, so that group's standing output stays comparable with the
	// replay. The rest joins the w=150 group; an eighth of the catalogue
	// asks for a shorter duration than that group holds, which restarts
	// its generator. The catalogue is drawn in its own order whatever the
	// seed: which queries are alive when decides how much a pass writes.
	plan := &churnPlan{}
	for i, b := range mixedBodies(churnBodies, pool) {
		q := cnf.Query{Clauses: b, Window: 300, Duration: 240}
		switch {
		case i%8 == 7:
			q.Window, q.Duration = 150, 90
		case i%2 == 1:
			q.Window, q.Duration = 150, 120
		}
		plan.catalogue = append(plan.catalogue, q)
	}
	n := w.trace.Len()
	plan.every = min(churnEvery, max(1, n/10))
	plan.snapEvery = min(snapshotEvery, max(1, n/3))
	w.churn = plan
	return nil
}

// setup generates the input, encodes it and opens (then closes) one
// fully subscribed session: everything a run needs before frames flow.
func (w *inproc) setup(ctx context.Context) error {
	reg := tvq.StandardRegistry()
	pool := rand.New(rand.NewSource(w.cfg.scenes))
	seed := rand.New(rand.NewSource(w.cfg.seed))
	order := seed
	if w.clipsInOrder {
		order = nil
	}
	t, err := sceneTrace(w.profile, w.k*w.cfg.scale, w.cfg.scenes, order, reg)
	if err != nil {
		return err
	}
	w.trace = t
	if w.tvqf, err = encodeTVQF(t.Frames(), reg); err != nil {
		return err
	}
	if err := w.build(w, pool, seed); err != nil {
		return err
	}
	discard := tvq.SinkFunc(func(tvq.Delivery) error { return nil })
	s, err := w.session(ctx, "", nil, func(cnf.Query) tvq.Sink { return discard })
	if err != nil {
		return err
	}
	return s.Close()
}

func (w *inproc) close() {}

func (w *inproc) inputDigests() []string {
	return []string{framesDigest(w.trace.Frames(), w.trace, tvq.StandardRegistry())}
}

type passOpts struct {
	method  tvq.Method // "" runs the shipped default
	limit   int        // frames to process; 0 = the whole trace
	capture io.Writer  // also receives the output lines of groups[0]'s queries
	log     *spanLog   // record spans
}

// opCounts are the operations a pass attempted; they repeat exactly
// from pass to pass and run to run.
type opCounts struct {
	Frames, Batches, Subscribes, Cancels, Snapshots, Resumes, Deliveries int64
}

func (c opCounts) total() int64 {
	return c.Frames + c.Batches + c.Subscribes + c.Cancels + c.Snapshots + c.Resumes + c.Deliveries
}

type passStats struct {
	frames      int // frames processed, the replayed tail included
	elapsedNS   int64
	rateFrames  int     // frames_per_s is rateFrames over rateNS:
	rateNS      int64   // the whole pass in process, phase A when served
	rateSamples []int64 // ns per frame or batch within rateNS, for steadyNS
	wireBytes   int64   // encoded frame bytes the system took in
	lat         []int64 // ns from a frame being handed over (or due) to its results being out
	mem         memMark
	liveHeap    float64
	out         outDigest
	matches     int64
	counts      opCounts
	failed      int64

	snapNS, resumeNS, patchNS []int64
	snapBytes                 int64
	groupNS                   map[int]int64 // traced: Σ ProcessStat.Elapsed by window
}

// session opens a fresh session and subscribes every standing query,
// each with the sink sinkFor gives it.
func (w *inproc) session(ctx context.Context, method tvq.Method, observe func(tvq.ProcessStat), sinkFor func(cnf.Query) tvq.Sink) (*tvq.Session, error) {
	opts := []tvq.Option{tvq.WithRegistry(tvq.StandardRegistry())}
	if method != "" {
		opts = append(opts, tvq.WithMethod(method))
	}
	if w.pooled {
		opts = append(opts, tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup))
	}
	if observe != nil {
		opts = append(opts, tvq.WithObserver(observe))
	}
	s, err := tvq.Open(ctx, opts...)
	if err != nil {
		return nil, err
	}
	for _, q := range w.standing {
		if _, err := s.Subscribe(q, tvq.WithSink(sinkFor(q))); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// teeSink delivers to two sinks; the verification pass uses it to keep
// one window group's lines apart.
type teeSink struct{ a, b tvq.Sink }

func (t teeSink) Deliver(d tvq.Delivery) error {
	if err := t.a.Deliver(d); err != nil {
		return err
	}
	return t.b.Deliver(d)
}

// pass runs the workload once on a fresh session and measures it.
func (w *inproc) pass(ctx context.Context, po passOpts) (*passStats, error) {
	n := w.trace.Len()
	if po.limit > 0 && po.limit < n {
		n = po.limit
	}
	clk := w.cfg.clk
	st := &passStats{lat: make([]int64, 0, n)}
	heapBefore := liveHeapMB()

	// Sinks: every query writes JSON lines into the pass's digest; tail
	// also holds what was written since the last snapshot, which is what
	// a session resumed from that snapshot must write again; capture
	// keeps the lines of groups[0] apart for the comparison with the
	// replay.
	var tail outDigest
	lines := tvq.Sink(tvq.NewJSONLSink(io.MultiWriter(&st.out, &tail)))
	lineSink := func(cnf.Query) tvq.Sink { return lines }
	if po.capture != nil {
		both := teeSink{lines, tvq.NewJSONLSink(po.capture)}
		primary := map[int]bool{}
		for _, q := range w.groups[0] {
			primary[q.ID] = true
		}
		lineSink = func(q cnf.Query) tvq.Sink {
			if primary[q.ID] {
				return both
			}
			return lines
		}
	}
	var tr *frameTracer
	var observe func(tvq.ProcessStat)
	traced := func(s tvq.Sink) tvq.Sink { return s }
	if po.log != nil {
		tr = &frameTracer{log: po.log, clk: clk, groupNS: map[int]int64{}}
		observe = tr.observe
		traced = func(s tvq.Sink) tvq.Sink { return tracedSink{s, tr} }
	}
	sinkFor := func(q cnf.Query) tvq.Sink { return traced(lineSink(q)) }

	var fan *tvq.FanoutSink
	var lineTap, countTap *tvq.Tap
	var drainTo tvq.Sink
	if w.fanout {
		// One fan-out sink serves every subscription; nothing cancels, so
		// sharing it is safe. The taps are drained on this goroutine after
		// every frame, which keeps a pass single-threaded and lets a tap
		// overflow only if one frame alone exceeds its buffer.
		fan = tvq.NewFanoutSink()
		lineTap, countTap = fan.Tap(tapBuffer), fan.Tap(tapBuffer)
		drainTo = lineSink(w.standing[0])
		shared := traced(fan)
		sinkFor = func(cnf.Query) tvq.Sink { return shared }
	}
	s, err := w.session(ctx, po.method, observe, sinkFor)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	var (
		dynamic   []*tvq.Subscription
		snap      bytes.Buffer
		snapAt    = -1
		sinceSnap []tvq.Frame
		churnOps  int
		counted   int64
		lastSnap  int
	)
	if w.churn != nil {
		// Nothing joins or leaves after the last snapshot, so replaying
		// the frames after it is all a resumed session has to do.
		lastSnap = n - n%w.churn.snapEvery
	}
	runtime.GC()
	memStart := readMem()
	start := clk.now()
	frameStart := start
	i := 0
	for f, err := range tvq.DecodeFrames(bytes.NewReader(w.tvqf), tvq.BinaryCodec, tvq.StandardRegistry()) {
		if err != nil {
			return nil, err
		}
		if i == n {
			break
		}
		if tr != nil {
			tr.begin(int64(i), frameStart)
		}
		matches, err := s.ProcessFrame(f)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		returned := clk.now()
		done := returned
		if w.fanout {
			counted += drainTaps(lineTap, countTap, drainTo)
			done = clk.now()
		}
		if tr != nil {
			tr.end(returned, done)
		}
		st.matches += int64(len(matches))
		st.lat = append(st.lat, done-frameStart)
		i++
		if c := w.churn; c != nil {
			sinceSnap = append(sinceSnap, f)
			if i%c.every == 0 && i <= lastSnap {
				q := c.catalogue[churnOps%len(c.catalogue)]
				q.ID = dynamicIDBase + churnOps
				churnOps++
				t0 := clk.now()
				sub, err := s.Subscribe(q, tvq.WithSink(sinkFor(q)))
				if err != nil {
					return nil, fmt.Errorf("subscribe after frame %d: %w", i, err)
				}
				t1 := clk.now()
				st.patchNS = append(st.patchNS, t1-t0)
				st.counts.Subscribes++
				dynamic = append(dynamic, sub)
				if len(dynamic) > churnKeep {
					if err := dynamic[0].Cancel(); err != nil {
						return nil, fmt.Errorf("cancel after frame %d: %w", i, err)
					}
					st.patchNS = append(st.patchNS, clk.now()-t1)
					st.counts.Cancels++
					dynamic = dynamic[1:]
				}
				if tr != nil {
					tr.log.add("session.churn", int64(i), t0, clk.now(), -1)
				}
			}
			if i%c.snapEvery == 0 {
				snap.Reset()
				t0 := clk.now()
				if err := s.Snapshot(&snap); err != nil {
					return nil, fmt.Errorf("snapshot after frame %d: %w", i, err)
				}
				t1 := clk.now()
				st.snapNS = append(st.snapNS, t1-t0)
				st.snapBytes += int64(snap.Len())
				st.counts.Snapshots++
				snapAt, sinceSnap = i, sinceSnap[:0]
				tail.reset()
				if tr != nil {
					tr.log.add("session.snapshot", int64(i), t0, t1, -1)
				}
			}
		}
		frameStart = clk.now()
	}
	st.frames = i
	if snapAt >= 0 {
		if err := w.resumeTail(ctx, st, snap.Bytes(), sinceSnap, tail, tr); err != nil {
			return nil, err
		}
		st.frames += len(sinceSnap)
	}
	st.elapsedNS = clk.now() - start
	st.mem = readMem().since(memStart)
	st.liveHeap = liveHeapMB() - heapBefore // the session is still open
	st.rateFrames, st.rateNS, st.rateSamples = st.frames, st.elapsedNS, st.lat
	st.wireBytes = int64(len(w.tvqf)) * int64(i) / int64(w.trace.Len())

	st.counts.Frames = int64(st.frames)
	st.counts.Deliveries = st.out.writes
	if w.fanout {
		st.failed += int64(lineTap.Dropped() + countTap.Dropped())
		if counted != st.out.writes {
			st.failed++
		}
		st.counts.Deliveries += int64(fan.Delivered()) + counted
	}
	if tr != nil {
		st.groupNS = tr.groupNS
	}
	return st, nil
}

// drainTaps empties both taps: the first into the JSON line sink, the
// second into a counter, which it returns.
func drainTaps(lineTap, countTap *tvq.Tap, lines tvq.Sink) (counted int64) {
	for {
		select {
		case d := <-lineTap.C():
			_ = lines.Deliver(d) // writes to memory; cannot fail
			continue
		default:
		}
		break
	}
	for {
		select {
		case <-countTap.C():
			counted++
			continue
		default:
		}
		return counted
	}
}

// resumeTail restores the last snapshot resumeReps times and replays
// the frames after it through the last restored session, which must
// write exactly what the original wrote for them.
func (w *inproc) resumeTail(ctx context.Context, st *passStats, snap []byte, frames []tvq.Frame, want outDigest, tr *frameTracer) error {
	clk := w.cfg.clk
	var got outDigest
	lines := tvq.NewJSONLSink(&got)
	opts := []tvq.Option{
		tvq.WithRegistry(tvq.StandardRegistry()),
		tvq.WithSubscriptionSinks(func(tvq.Query) tvq.Sink { return lines }),
	}
	var resumed *tvq.Session
	for rep := 0; rep < resumeReps; rep++ {
		if resumed != nil {
			resumed.Close()
		}
		t0 := clk.now()
		s, err := tvq.Resume(ctx, bytes.NewReader(snap), opts...)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		t1 := clk.now()
		st.resumeNS = append(st.resumeNS, t1-t0)
		st.counts.Resumes++
		if tr != nil {
			tr.log.add("session.resume", int64(st.frames), t0, t1, -1)
		}
		resumed = s
	}
	defer resumed.Close()
	for _, f := range frames {
		if _, err := resumed.ProcessFrame(f); err != nil {
			return fmt.Errorf("resumed frame %d: %w", f.FID, err)
		}
	}
	if got != want {
		st.failed++
		fmt.Fprintf(w.cfg.stderr, "%s: resumed session wrote %v for the tail, the original %v\n", w.name, got, want)
	}
	return nil
}

// frameTracer records the spans of one traced pass around the calls the
// driver makes and from the hooks the session offers: the observer
// (called on pool workers) and the sinks.
type frameTracer struct {
	log *spanLog
	clk clock

	frame     atomic.Int64
	root, cur int
	sinkStart int64

	mu      sync.Mutex
	groupNS map[int]int64
}

// begin opens the frame's root span at from (just before its decode)
// and the session.process span now.
func (t *frameTracer) begin(i int64, from int64) {
	now := t.clk.now()
	t.frame.Store(i)
	t.root = t.log.add("frame", i, from, from, -1)
	t.log.add("vr.decode", i, from, now, t.root)
	t.cur = t.log.add("session.process", i, now, now, t.root)
	t.sinkStart = 0
}

// end closes the frame's spans: ProcessFrame returned at returned, the
// frame's results were all written by done (later than returned only
// when taps were drained). Sinks run last inside ProcessFrame, so the
// time from the first delivery to returned is theirs (and the session's
// per-match routing).
func (t *frameTracer) end(returned, done int64) {
	if t.sinkStart != 0 {
		t.log.add("sink.deliver", t.frame.Load(), t.sinkStart, returned, t.cur)
	}
	t.log.setEnd(t.cur, returned)
	if done > returned {
		t.log.add("sink.drain", t.frame.Load(), returned, done, t.root)
	}
	t.log.setEnd(t.root, done)
}

func (t *frameTracer) observe(st tvq.ProcessStat) {
	end := t.clk.now()
	t.log.add("engine.group", t.frame.Load(), end-int64(st.Elapsed), end, t.cur)
	t.mu.Lock()
	t.groupNS[st.Window] += int64(st.Elapsed)
	t.mu.Unlock()
}

// tracedSink notes when a frame's first delivery starts.
type tracedSink struct {
	tvq.Sink
	tr *frameTracer
}

func (s tracedSink) Deliver(d tvq.Delivery) error {
	if s.tr.sinkStart == 0 {
		s.tr.sinkStart = s.tr.clk.now()
	}
	return s.Sink.Deliver(d)
}
