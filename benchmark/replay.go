package main

import (
	"bytes"
	"fmt"
	"io"

	"tvq"
	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/reorder"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// The replay re-assembles what a session does to a frame out of the
// public functions of the layers below it: TVQF decode → reorder.Push
// (disordered inputs only) → class filter → Generator.Process →
// Evaluator.EvaluateStates → JSONLSink.Deliver. Each call is timed from
// outside, so a layer's cost is known without spans inside the program,
// and the bytes it writes must equal what the real session writes.

// chunk is a run of TVQF-encoded frames of one feed: the whole trace
// for an in-process workload, one ingest batch for serve-disorder.
type chunk struct {
	feed   int
	data   []byte
	frames int
}

type replaySpec struct {
	chunks  []chunk
	feeds   int
	bound   int           // reorder bound; 0 leaves the stage out
	groups  [][]cnf.Query // window groups to re-assemble; groups[0] writes the output
	method  tvq.Method
	limit   int  // frames to replay
	layers  bool // attribute time and allocations to layers
	log     *spanLog
	clk     clock
	capture []io.Writer // per feed: receives group 0's output lines
}

// layerCost is what one layer cost over the replayed frames: time over
// the frames that were timed, allocations over the frames that were
// sampled for them (a sample stops the world, so it is not timed).
type layerCost struct {
	ns     int64
	allocs uint64
}

type replayOut struct {
	frames, timed, sampled     int
	decode, reorder, filter    layerCost
	sink                       layerCost
	core, query                []layerCost // per group
	emitted, liveSum, matches  int64
	gen                        core.Metrics // group 0, summed over feeds
	out                        []outDigest  // per feed
	depthMax                   int
	late                       uint64
	snapEncodeNS, snapDecodeNS []int64
	snapBytes                  int
	pairs                      []setPair
}

// setPair is an emitted state's object set and the next frame's object
// set: the operands the generators hand to the set kernels.
type setPair struct{ state, frame objset.Set }

type replayGroup struct {
	ev   *query.Evaluator
	gen  core.Generator
	cfg  core.Config
	keep map[vr.Class]bool
}

type replayFeed struct {
	groups  []replayGroup
	classes map[objset.ID]vr.Class
	classOf func(objset.ID) vr.Class
	buf     *reorder.Buffer
	sink    *tvq.JSONLSink
}

func newGenerator(m tvq.Method, cfg core.Config) (core.Generator, error) {
	switch m {
	case tvq.MethodNaive:
		return core.NewNaive(cfg), nil
	case tvq.MethodMFS:
		return core.NewMFS(cfg), nil
	case tvq.MethodSSG:
		return core.NewSSG(cfg), nil
	}
	return nil, fmt.Errorf("unknown method %q", m)
}

// sampleEvery and sampleRun choose the frames whose allocations are
// counted exactly: runs of sampleRun frames, one run in sampleEvery.
const (
	sampleEvery = 10
	sampleRun   = 64
)

func replay(spec replaySpec) (*replayOut, error) {
	reg := tvq.StandardRegistry()
	out := &replayOut{
		core:  make([]layerCost, len(spec.groups)),
		query: make([]layerCost, len(spec.groups)),
		out:   make([]outDigest, spec.feeds),
	}
	feeds := make([]*replayFeed, spec.feeds)
	for i := range feeds {
		fs := &replayFeed{classes: make(map[objset.ID]vr.Class)}
		fs.classOf = func(id objset.ID) vr.Class { return fs.classes[id] }
		for _, qs := range spec.groups {
			ev, err := query.NewEvaluator(reg, qs)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{Window: ev.Window(), Duration: ev.MinDuration()}
			gen, err := newGenerator(spec.method, cfg)
			if err != nil {
				return nil, err
			}
			fs.groups = append(fs.groups, replayGroup{ev: ev, gen: gen, cfg: cfg, keep: ev.Classes()})
		}
		if spec.bound > 0 {
			fs.buf = reorder.New(spec.bound, reorder.Drop, 0)
		}
		var w io.Writer = &out.out[i]
		if spec.capture != nil {
			w = io.MultiWriter(w, spec.capture[i])
		}
		fs.sink = tvq.NewJSONLSink(w)
		feeds[i] = fs
	}

	r := &replayer{spec: spec, out: out}
	var released []vr.Frame
	for _, ch := range spec.chunks {
		if out.frames >= spec.limit {
			break
		}
		fs := feeds[ch.feed]
		fr := vr.Binary.NewFrameReader(bytes.NewReader(ch.data), reg)
		for out.frames < spec.limit {
			r.begin()
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			r.open()
			r.lap("vr.decode", &out.decode)
			released = append(released[:0], f)
			if fs.buf != nil {
				released, err = fs.buf.Push(f, released[:0])
				if err != nil {
					return nil, err
				}
				out.depthMax = max(out.depthMax, fs.buf.Depth())
				r.lap("reorder.push", &out.reorder)
			}
			for _, rf := range released {
				r.frame(fs, ch.feed, rf)
			}
			r.end()
			out.frames++
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, fs := range feeds {
		if fs.buf != nil {
			out.late += fs.buf.LateCount()
		}
		if m, ok := fs.groups[0].gen.(interface{ Metrics() core.Metrics }); ok {
			gm := m.Metrics()
			out.gen.FramesProcessed += gm.FramesProcessed
			out.gen.Intersections += gm.Intersections
			out.gen.StatesVisited += gm.StatesVisited
		}
	}
	return out, nil
}

// replayer carries the stopwatch state of one replay.
type replayer struct {
	spec     replaySpec
	out      *replayOut
	sampling bool
	root     int
	t        int64
	mem      memMark
	pending  []objset.Set // state sets waiting for the next frame to pair with
	snapped  bool         // the snapshot codec has been timed
	err      error
}

// begin starts the stopwatch before a frame is decoded and decides
// whether the frame is timed or sampled for allocations.
func (r *replayer) begin() {
	if !r.spec.layers {
		return
	}
	r.sampling = r.out.frames%(sampleEvery*sampleRun) >= (sampleEvery-1)*sampleRun
	if r.sampling {
		r.mem = readMem()
	}
	r.t = r.spec.clk.now()
}

// open counts a decoded frame and opens its root span (begin also runs
// before the read that finds the end of a chunk, which is no frame).
func (r *replayer) open() {
	if !r.spec.layers {
		return
	}
	r.root = -1
	if r.sampling {
		r.out.sampled++
	} else {
		r.out.timed++
		if r.spec.log != nil {
			r.root = r.spec.log.add("replay.frame", int64(r.out.frames), r.t, r.t, -1)
		}
	}
}

// lap charges the time (or, on a sampled frame, the allocations) since
// the previous lap to one layer.
func (r *replayer) lap(name string, to *layerCost) {
	if !r.spec.layers {
		return
	}
	now := r.spec.clk.now()
	if r.sampling {
		m := readMem()
		to.allocs += m.mallocs - r.mem.mallocs
		r.mem = m
	} else {
		to.ns += now - r.t
		if r.spec.log != nil {
			r.spec.log.add(name, int64(r.out.frames), r.t, now, r.root)
		}
	}
	r.t = r.spec.clk.now()
}

func (r *replayer) end() {
	if r.spec.layers && r.spec.log != nil && r.root >= 0 {
		r.spec.log.setEnd(r.root, r.spec.clk.now())
	}
}

// frame runs one in-order frame through every group of its feed, as
// engine.ProcessFrame does.
func (r *replayer) frame(fs *replayFeed, feed int, f vr.Frame) {
	out := r.out
	f.Objects.Range(func(id objset.ID) bool {
		fs.classes[id] = f.Classes[id]
		return true
	})
	for gi := range fs.groups {
		g := &fs.groups[gi]
		gf := filterFrame(f, g.keep)
		r.lap("vr.filter", &out.filter)
		states := g.gen.Process(gf)
		r.lap("core.process", &out.core[gi])
		matches := g.ev.EvaluateStates(states, fs.classOf)
		r.lap("query.evaluate", &out.query[gi])
		if gi != 0 {
			continue
		}
		for _, m := range matches {
			// The sink writes to memory; it cannot fail.
			_ = fs.sink.Deliver(tvq.Delivery{Feed: tvq.FeedID(feed), FID: f.FID, Match: m})
		}
		r.lap("sink.deliver", &out.sink)
		out.emitted += int64(len(states))
		out.liveSum += int64(g.gen.StateCount())
		out.matches += int64(len(matches))
		if r.spec.layers && feed == 0 {
			r.kernelInputs(g, gf, states)
		}
	}
}

// maxPairs bounds the operand sample kept for the set kernels.
const maxPairs = 4096

// kernelInputs runs between laps, so what it costs is charged to no
// layer: it pairs the previous frame's emitted state sets with this
// frame's object set, and halfway through the replay it times the
// generator's snapshot codec on the live state.
func (r *replayer) kernelInputs(g *replayGroup, gf vr.Frame, states []*core.State) {
	for _, s := range r.pending {
		r.out.pairs = append(r.out.pairs, setPair{s, gf.Objects.Clone()})
	}
	r.pending = r.pending[:0]
	if len(r.out.pairs) < maxPairs && r.out.frames%8 == 0 {
		for _, s := range states {
			r.pending = append(r.pending, s.Objects.Clone())
		}
	}
	if !r.snapped && r.out.frames >= r.spec.limit/2 {
		r.snapped = true
		for rep := 0; rep < 5; rep++ {
			var sw snapshot.Writer
			t0 := r.spec.clk.now()
			err := core.EncodeGenerator(&sw, g.gen)
			t1 := r.spec.clk.now()
			if err == nil {
				_, err = core.DecodeGenerator(snapshot.NewReader(sw.Bytes()), g.cfg)
			}
			t2 := r.spec.clk.now()
			if err != nil {
				r.err = fmt.Errorf("generator snapshot at frame %d: %w", r.out.frames, err)
				return
			}
			r.out.snapEncodeNS = append(r.out.snapEncodeNS, t1-t0)
			r.out.snapDecodeNS = append(r.out.snapDecodeNS, t2-t1)
			r.out.snapBytes = len(sw.Bytes())
		}
	}
	r.t = r.spec.clk.now()
	if r.sampling {
		r.mem = readMem()
	}
}

// filterFrame drops the objects whose class no query of the group
// names, the push-down engine.ProcessFrame applies. A filtered set is a
// fresh allocation, so the generator may keep it.
func filterFrame(f vr.Frame, keep map[vr.Class]bool) vr.Frame {
	kept := make([]objset.ID, 0, f.Objects.Len())
	f.Objects.Range(func(id objset.ID) bool {
		if keep[f.Classes[id]] {
			kept = append(kept, id)
		}
		return true
	})
	if len(kept) != f.Objects.Len() {
		f.Objects, f.Owned = objset.FromSorted(kept), true
	}
	return f
}
