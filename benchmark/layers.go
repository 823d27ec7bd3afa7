package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"tvq"
	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// layerDef names one per-layer metric. Every traced run prints all of
// them; a layer that is not on a workload's path reports 0.
type layerDef struct{ name, unit, better string }

// perLayer is the list BENCHMARK.json repeats under per_layer.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{"vr.decode_ns_per_frame", "ns/frame", "lower"},
		{"vr.decode_allocs_per_frame", "allocs/frame", "lower"},
		{"vr.encode_ns_per_frame", "ns/frame", "lower"},
		{"vr.wire_bytes_per_frame", "bytes/frame", "lower"},
		{"vr.jsonl_decode_ns_per_frame", "ns/frame", "lower"},
		{"reorder.push_ns_per_frame", "ns/frame", "lower"},
		{"reorder.allocs_per_frame", "allocs/frame", "lower"},
		{"reorder.depth_max", "frames", "lower"},
		{"reorder.late_frames", "count", "lower"},
		{"engine.group_ns_per_frame", "ns/frame", "lower"},
		{"engine.pool_skew", "ratio", "lower"},
	}
	for _, m := range methods {
		for _, d := range []layerDef{
			{"ns_per_frame", "ns/frame", "lower"},
			{"allocs_per_frame", "allocs/frame", "lower"},
			{"states_live_mean", "states", "lower"},
			{"intersections_per_frame", "count/frame", "lower"},
			{"states_visited_per_frame", "count/frame", "lower"},
			{"update_ns_w150", "ns/frame", "lower"},
			{"update_ns_w600", "ns/frame", "lower"},
		} {
			defs = append(defs, layerDef{fmt.Sprintf("core.%s.%s", m, d.name), d.unit, d.better})
		}
	}
	defs = append(defs,
		layerDef{"core.states_emitted_per_frame", "states/frame", "lower"},
		layerDef{"core.ssg_vs_naive", "ratio", "lower"},
		layerDef{"objset.intersect_ns", "ns", "lower"},
		layerDef{"objset.intern_ns", "ns", "lower"},
		layerDef{"objset.lookup_ns", "ns", "lower"},
		layerDef{"query.evaluate_ns_per_frame", "ns/frame", "lower"},
		layerDef{"query.allocs_per_frame", "allocs/frame", "lower"},
		layerDef{"query.matches_per_frame", "count/frame", "higher"},
		layerDef{"query.ns_per_match", "ns", "lower"},
		layerDef{"query.plan_patch_us_p50", "us", "lower"},
		layerDef{"tvq.sink_ns_per_match", "ns", "lower"},
		layerDef{"tvq.sink_bytes_per_match", "bytes", "lower"},
		layerDef{"tvq.fanout_ns_per_delivery", "ns", "lower"},
		layerDef{"tvq.fanout_dropped", "count", "lower"},
		layerDef{"tvq.dispatch_self_ns_per_frame", "ns/frame", "lower"},
		layerDef{"tvq.frame_us_p999", "us", "lower"},
		layerDef{"tvq.live_heap_mb", "MiB", "lower"},
		layerDef{"snapshot.session_ms_p50", "ms", "lower"},
		layerDef{"snapshot.session_kb", "KiB", "lower"},
		layerDef{"snapshot.resume_ms", "ms", "lower"},
	)
	for _, m := range methods {
		defs = append(defs,
			layerDef{fmt.Sprintf("snapshot.%s.encode_ms", m), "ms", "lower"},
			layerDef{fmt.Sprintf("snapshot.%s.decode_ms", m), "ms", "lower"},
			layerDef{fmt.Sprintf("snapshot.%s.kb", m), "KiB", "lower"},
		)
	}
	return append(defs,
		layerDef{"server.ingest_rtt_ms_p50", "ms", "lower"},
		layerDef{"server.ingest_rtt_ms_p99", "ms", "lower"},
		layerDef{"server.overhead_us_per_frame", "us/frame", "lower"},
		layerDef{"server.cpu_s_per_kframe", "s/kframe", "lower"},
		layerDef{"server.rss_mb", "MiB", "lower"},
		layerDef{"server.stream_bytes_per_match", "bytes", "lower"},
		layerDef{"server.stream_dropped", "count", "lower"},
		layerDef{"server.status_409", "count", "lower"},
		layerDef{"server.status_429", "count", "lower"},
		layerDef{"server.status_5xx", "count", "lower"},
		layerDef{"server.backlog_frames_end", "frames", "lower"},
		layerDef{"tvqclient.retries", "count", "lower"},
		layerDef{"tvqclient.send_late_ms_p99", "ms", "lower"},
		layerDef{"trace.coverage", "ratio", "higher"},
		layerDef{"trace.group_agreement", "ratio", "higher"},
		layerDef{"trace.overhead_share", "ratio", "lower"},
	)
}()

// replayLayers runs the replay once per generator with layer
// attribution on and turns what it measured into the vr, reorder, core,
// query, sink, snapshot and objset metrics. It returns the default
// generator's replay too, for the trace.* ratios. The three replays
// must write the same bytes.
func replayLayers(spec replaySpec, log *spanLog, m map[string]float64) (*replayOut, error) {
	var def *replayOut
	var first []outDigest
	coreNS := map[tvq.Method]float64{}
	for _, method := range methods {
		spec.method, spec.layers, spec.log = method, true, nil
		if method == defaultMethod {
			spec.log = log
		}
		out, err := replay(spec)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", method, err)
		}
		if first == nil {
			first = out.out
		}
		for f := range out.out {
			if out.out[f] != first[f] {
				return nil, fmt.Errorf("replay: %s wrote %v for feed %d, %s wrote %v", method, out.out[f], f, methods[0], first[f])
			}
		}
		frames, timed, sampled := float64(out.frames), float64(out.timed), float64(out.sampled)
		p := fmt.Sprintf("core.%s.", method)
		coreNS[method] = ratio(float64(out.core[0].ns), timed)
		m[p+"ns_per_frame"] = coreNS[method]
		m[p+"allocs_per_frame"] = ratio(float64(out.core[0].allocs), sampled)
		m[p+"states_live_mean"] = ratio(float64(out.liveSum), frames)
		m[p+"intersections_per_frame"] = ratio(float64(out.gen.Intersections), float64(out.gen.FramesProcessed))
		m[p+"states_visited_per_frame"] = ratio(float64(out.gen.StatesVisited), float64(out.gen.FramesProcessed))
		p = fmt.Sprintf("snapshot.%s.", method)
		m[p+"encode_ms"] = medianNS(out.snapEncodeNS) / 1e6
		m[p+"decode_ms"] = medianNS(out.snapDecodeNS) / 1e6
		m[p+"kb"] = float64(out.snapBytes) / 1024
		if method != defaultMethod {
			continue
		}
		def = out
		var wire int64
		for _, c := range spec.chunks {
			wire += int64(len(c.data))
		}
		var outBytes int64
		for _, o := range out.out {
			outBytes += o.bytes
		}
		m["vr.decode_ns_per_frame"] = ratio(float64(out.decode.ns), timed)
		m["vr.decode_allocs_per_frame"] = ratio(float64(out.decode.allocs), sampled)
		m["vr.wire_bytes_per_frame"] = ratio(float64(wire), float64(chunkFrames(spec.chunks)))
		m["reorder.push_ns_per_frame"] = ratio(float64(out.reorder.ns), timed)
		m["reorder.allocs_per_frame"] = ratio(float64(out.reorder.allocs), sampled)
		m["reorder.depth_max"] = float64(out.depthMax)
		m["reorder.late_frames"] = float64(out.late)
		m["core.states_emitted_per_frame"] = ratio(float64(out.emitted), frames)
		m["query.evaluate_ns_per_frame"] = ratio(float64(out.query[0].ns), timed)
		m["query.allocs_per_frame"] = ratio(float64(out.query[0].allocs), sampled)
		m["query.matches_per_frame"] = ratio(float64(out.matches), frames)
		m["query.ns_per_match"] = ratio(float64(out.query[0].ns)*frames/timed, float64(out.matches))
		m["tvq.sink_ns_per_match"] = ratio(float64(out.sink.ns)*frames/timed, float64(out.matches))
		m["tvq.sink_bytes_per_match"] = ratio(float64(outBytes), float64(out.matches))
		objsetKernels(out.pairs, spec.clk, m)
	}
	m["core.ssg_vs_naive"] = ratio(coreNS[tvq.MethodSSG], coreNS[tvq.MethodNaive])
	return def, nil
}

func chunkFrames(chunks []chunk) int {
	n := 0
	for _, c := range chunks {
		n += c.frames
	}
	return n
}

// replayedNS is what the replay's layers cost per frame along the path
// a frame blocks on: groups a pool runs side by side count once, by the
// slowest.
func replayedNS(out *replayOut, pooled bool) (layers, groups float64) {
	timed := float64(out.timed)
	var sum, slowest float64
	for g := range out.core {
		ns := float64(out.core[g].ns + out.query[g].ns)
		sum += ns
		slowest = max(slowest, ns)
	}
	path := sum
	if pooled {
		path = slowest
	}
	rest := float64(out.decode.ns + out.reorder.ns + out.filter.ns + out.sink.ns)
	return ratio(rest+path, timed), ratio(sum, timed)
}

// kernelLoop times fn over rounds until it has run for 20 ms and
// returns ns per call of fn's inner operation, of which one round
// performs ops.
func kernelLoop(clk clock, ops int, fn func()) float64 {
	if ops == 0 {
		return 0
	}
	fn() // warm
	var rounds int
	start := clk.now()
	for clk.now()-start < 20e6 {
		fn()
		rounds++
	}
	return float64(clk.now()-start) / float64(rounds*ops)
}

var kernelSink int

// objsetKernels times the set operations the generators lean on, over
// operand pairs captured from the replay.
func objsetKernels(pairs []setPair, clk clock, m map[string]float64) {
	var scratch objset.Scratch
	m["objset.intersect_ns"] = kernelLoop(clk, len(pairs), func() {
		for _, p := range pairs {
			kernelSink += p.state.IntersectInto(p.frame, &scratch).Len()
		}
	})
	var sets []objset.Set
	for _, p := range pairs {
		if !p.state.IsEmpty() {
			sets = append(sets, p.state)
		}
	}
	in := objset.NewInterner()
	handles := make([]objset.Handle, 0, len(sets))
	m["objset.intern_ns"] = kernelLoop(clk, len(sets), func() {
		handles = handles[:0]
		for _, s := range sets {
			h, created := in.Intern(s)
			if created {
				handles = append(handles, h)
			}
		}
		for _, h := range handles {
			in.Release(h)
		}
	})
	for _, s := range sets {
		in.Intern(s)
	}
	m["objset.lookup_ns"] = kernelLoop(clk, len(sets), func() {
		for _, s := range sets {
			if _, ok := in.Lookup(s); ok {
				kernelSink++
			}
		}
	})
}

// codecKernels times the frame writer and the JSONL fallback reader
// over the first frames of the workload's own input.
func codecKernels(frames []vr.Frame, clk clock, m map[string]float64) error {
	reg := tvq.StandardRegistry()
	frames = frames[:min(len(frames), 4096)]
	var buf bytes.Buffer
	var werr error
	m["vr.encode_ns_per_frame"] = kernelLoop(clk, len(frames), func() {
		buf.Reset()
		fw := vr.Binary.NewFrameWriter(&buf, reg)
		for _, f := range frames {
			if err := fw.WriteFrame(f); err != nil {
				werr = err
			}
		}
		if err := fw.Flush(); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	var jsonl bytes.Buffer
	jw := vr.JSONL.NewFrameWriter(&jsonl, reg)
	for _, f := range frames {
		if err := jw.WriteFrame(f); err != nil {
			return err
		}
	}
	if err := jw.Flush(); err != nil {
		return err
	}
	var rerr error
	m["vr.jsonl_decode_ns_per_frame"] = kernelLoop(clk, len(frames), func() {
		fr := vr.JSONL.NewFrameReader(bytes.NewReader(jsonl.Bytes()), reg)
		for {
			if _, err := fr.Next(); err != nil {
				if err != io.EOF {
					rerr = err
				}
				return
			}
		}
	})
	return rerr
}

// fanoutKernel times FanoutSink.Deliver with two taps attached, drained
// every batch as the sparse-fanout pass drains them every frame.
func fanoutKernel(clk clock, m map[string]float64) {
	const batch = 512
	fan := tvq.NewFanoutSink()
	defer fan.Close()
	a, b := fan.Tap(tapBuffer), fan.Tap(tapBuffer)
	d := tvq.Delivery{FID: 1, Match: tvq.Match{QueryID: 1, Objects: objset.New(1, 2, 3)}}
	discard := tvq.SinkFunc(func(tvq.Delivery) error { return nil })
	m["tvq.fanout_ns_per_delivery"] = kernelLoop(clk, batch, func() {
		for i := 0; i < batch; i++ {
			_ = fan.Deliver(d) // never fails
		}
		drainTaps(a, b, discard)
	})
	m["tvq.fanout_dropped"] = float64(a.Dropped() + b.Dropped())
}

// layers is the traced run of an in-process workload: one untraced
// pass, one traced pass of the real session, and the replay.
func (w *inproc) layers(ctx context.Context) (map[string]float64, *passStats, []*spanLog, error) {
	m := map[string]float64{}
	clk := w.cfg.clk
	plain, err := w.timed(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	sessionLog := &spanLog{workload: w.name}
	traced, err := w.pass(ctx, passOpts{log: sessionLog})
	if err != nil {
		return nil, nil, nil, err
	}
	if traced.out != plain.out || traced.failed != 0 {
		return nil, nil, nil, fmt.Errorf("traced pass wrote %v, untraced %v", traced.out, plain.out)
	}
	replayLog := &spanLog{workload: w.name}
	limit := max(1, w.trace.Len()/2)
	spec := w.replaySpec("", limit)
	def, err := replayLayers(spec, replayLog, m)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := codecKernels(w.trace.Frames(), clk, m); err != nil {
		return nil, nil, nil, err
	}

	// The session's own numbers come from the spans of the frames the
	// replay also covered, so the two are comparable.
	self := sessionLog.selfTimes(int64(limit))
	groupNS, _ := sessionLog.total("engine.group", int64(limit))
	frames := float64(limit)
	var head int64 // what the untraced pass spent on the same frames
	for _, l := range plain.lat[:limit] {
		head += l
	}
	dispatch := float64(self["session.process"]) / frames
	m["engine.group_ns_per_frame"] = float64(groupNS) / frames
	m["tvq.dispatch_self_ns_per_frame"] = dispatch
	m["tvq.frame_us_p999"] = percentileNS(plain.lat, 0.999) / 1e3
	m["tvq.live_heap_mb"] = plain.liveHeap
	if len(traced.groupNS) > 1 {
		var sum, busiest float64
		for _, ns := range traced.groupNS {
			sum += float64(ns)
			busiest = max(busiest, float64(ns))
		}
		m["engine.pool_skew"] = ratio(busiest, sum/float64(len(traced.groupNS)))
	}
	m["query.plan_patch_us_p50"] = medianNS(plain.patchNS) / 1e3
	m["snapshot.session_ms_p50"] = medianNS(plain.snapNS) / 1e6
	m["snapshot.session_kb"] = ratio(float64(plain.snapBytes)/1024, float64(plain.counts.Snapshots))
	m["snapshot.resume_ms"] = medianNS(plain.resumeNS) / 1e6
	layerNS, replayedGroups := replayedNS(def, w.pooled)
	if w.fanout {
		fanoutKernel(clk, m)
		// The replay's sink writes JSON lines; the fan-out in front of
		// them exists only in the session.
		layerNS += float64(self["sink.deliver"]) / frames
	}
	m["trace.coverage"] = ratio(layerNS+dispatch, float64(head)/frames)
	m["trace.group_agreement"] = ratio(replayedGroups, m["engine.group_ns_per_frame"])
	m["trace.overhead_share"] = ratio(float64(traced.elapsedNS), float64(plain.elapsedNS)) - 1

	if w.name == "dense-static" {
		if err := w.updateCurve(m); err != nil {
			return nil, nil, nil, err
		}
	}
	return m, plain, []*spanLog{sessionLog, replayLog}, nil
}

// updateCurve measures each generator's per-frame cost at half and at
// twice the workload's window on a prefix: incremental maintenance
// earns its complexity only if this curve stays flatter than Naive's.
func (w *inproc) updateCurve(m map[string]float64) error {
	for _, window := range []int{150, 600} {
		qs := append([]cnf.Query(nil), w.groups[0]...)
		for i := range qs {
			qs[i].Window, qs[i].Duration = window, window*4/5
		}
		for _, method := range methods {
			spec := w.replaySpec(method, min(w.trace.Len(), 4*window+600))
			spec.groups, spec.layers = [][]cnf.Query{qs}, true
			out, err := replay(spec)
			if err != nil {
				return fmt.Errorf("update curve %s w=%d: %w", method, window, err)
			}
			m[fmt.Sprintf("core.%s.update_ns_w%d", method, window)] = ratio(float64(out.core[0].ns), float64(out.timed))
		}
	}
	return nil
}

func (w *inproc) replaySpec(method tvq.Method, limit int) replaySpec {
	if method == "" {
		method = defaultMethod
	}
	return replaySpec{
		chunks: []chunk{{feed: 0, data: w.tvqf, frames: w.trace.Len()}}, feeds: 1,
		groups: w.groups, method: method, limit: limit, clk: w.cfg.clk,
	}
}

func (w *inproc) timed(ctx context.Context) (*passStats, error) { return w.pass(ctx, passOpts{}) }

// verify runs the real session on a prefix and requires the replay of
// groups[0] to write the same bytes under every generator.
func (w *inproc) verify(ctx context.Context) error {
	limit := min(w.trace.Len(), w.verifyN)
	var session bytes.Buffer
	st, err := w.pass(ctx, passOpts{limit: limit, capture: &session})
	if err != nil {
		return err
	}
	if st.failed != 0 {
		return fmt.Errorf("the session's pass over the first %d frames failed %d checks", limit, st.failed)
	}
	for _, method := range methods {
		var replayed bytes.Buffer
		spec := w.replaySpec(method, limit)
		spec.groups, spec.capture = w.groups[:1], []io.Writer{&replayed}
		if _, err := replay(spec); err != nil {
			return fmt.Errorf("replay %s: %w", method, err)
		}
		if !bytes.Equal(session.Bytes(), replayed.Bytes()) {
			return fmt.Errorf("the %s replay of the first %d frames wrote %d bytes that differ from the session's %d",
				method, limit, replayed.Len(), session.Len())
		}
	}
	return nil
}

// layers is the traced run of serve-disorder: an untraced and a traced
// pass against the daemon, and the replay of the same batches.
func (w *serve) layers(ctx context.Context) (map[string]float64, *passStats, []*spanLog, error) {
	m := map[string]float64{}
	plain, err := w.pass(ctx, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	clientLog := &spanLog{workload: "serve-disorder"}
	traced, err := w.pass(ctx, clientLog)
	if err != nil {
		return nil, nil, nil, err
	}
	if traced.failed != 0 {
		return nil, nil, nil, fmt.Errorf("traced pass failed %d checks", traced.failed)
	}
	chunks, err := w.chunks(max(1, w.steps/2))
	if err != nil {
		return nil, nil, nil, err
	}
	replayLog := &spanLog{workload: "serve-disorder"}
	def, err := replayLayers(w.replaySpec(chunks, defaultMethod), replayLog, m)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := codecKernels(w.feeds[0], w.cfg.clk, m); err != nil {
		return nil, nil, nil, err
	}

	frames := float64(plain.frames)
	served := float64(plain.rateNS) / float64(plain.rateFrames)
	m["server.ingest_rtt_ms_p50"] = percentileNS(plain.rtt, 0.50) / 1e6
	m["server.ingest_rtt_ms_p99"] = percentileNS(plain.rtt, 0.99) / 1e6
	m["server.overhead_us_per_frame"] = (served - w.ref.nsPerFrame) / 1e3
	m["server.cpu_s_per_kframe"] = plain.cpuSeconds / frames * 1e3
	m["server.rss_mb"] = plain.peakRSSMB
	m["server.stream_bytes_per_match"] = ratio(float64(plain.streamBytes), float64(plain.counts.Deliveries))
	m["server.stream_dropped"] = plain.metrics["tvq_stream_dropped_total"]
	m["server.status_409"] = float64(plain.wire.status409.Load())
	m["server.status_429"] = float64(plain.wire.status429.Load())
	m["server.status_5xx"] = float64(plain.wire.status5xx.Load())
	m["server.backlog_frames_end"] = float64(plain.backlog)
	m["tvqclient.retries"] = float64(plain.wire.posts.Load() - plain.counts.Batches)
	m["tvqclient.send_late_ms_p99"] = percentileNS(plain.sendLate, 0.99) / 1e6
	m["engine.group_ns_per_frame"] = plain.metrics["tvq_generator_process_seconds_total"] * 1e9 / frames
	m["tvq.frame_us_p999"] = percentileNS(plain.lat, 0.999) / 1e3
	layerNS, replayedGroups := replayedNS(def, false)
	m["trace.coverage"] = ratio(layerNS+m["vr.encode_ns_per_frame"], served)
	m["trace.group_agreement"] = ratio(replayedGroups, m["engine.group_ns_per_frame"])
	m["trace.overhead_share"] = ratio(float64(traced.rateNS), float64(plain.rateNS)) - 1
	return m, &plain.passStats, []*spanLog{clientLog, replayLog}, nil
}

func (w *serve) timed(ctx context.Context) (*passStats, error) {
	sp, err := w.pass(ctx, nil)
	if err != nil {
		return nil, err
	}
	return &sp.passStats, nil
}
