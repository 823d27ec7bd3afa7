// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table/figure over the datasets and workloads of internal/bench, plus
// the wire, egress and query-scaling panels CI's benchstat gate runs.
// They run at reduced scale (fewer frames, proportionally smaller
// windows) so `go test -bench=.` finishes in minutes;
// BenchmarkSSGCoherentFeed is the one full-scale panel. The end-to-end
// workloads, with repetitions and per-layer attribution, are
// benchmark/'s (`bash benchmark/run.sh`); the op-count shape tests in
// internal/bench assert the paper's qualitative findings.
package tvq_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tvq"
	"tvq/internal/bench"
	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/engine"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/server"
	"tvq/internal/video"
	"tvq/internal/vr"
	"tvq/tvqclient"
)

// benchScale shrinks datasets for testing.B runs: frame counts, windows
// and durations are divided by this factor.
const benchScale = 6

func benchConfig() bench.Config { return bench.Config{Seed: 1, Scale: benchScale} }

// loadBenchDataset caches generated traces across benchmarks.
var benchDatasets = map[string]*bench.Dataset{}

func loadBenchDataset(b *testing.B, name string) *bench.Dataset {
	b.Helper()
	if ds, ok := benchDatasets[name]; ok {
		return ds
	}
	ds, err := benchConfig().LoadDataset(name)
	if err != nil {
		b.Fatal(err)
	}
	benchDatasets[name] = ds
	return ds
}

func newGen(method string, cfg core.Config) core.Generator {
	switch method {
	case "NAIVE":
		return core.NewNaive(cfg)
	case "MFS":
		return core.NewMFS(cfg)
	case "SSG":
		return core.NewSSG(cfg)
	}
	panic("unknown method")
}

func scaled(v int) int {
	s := v / benchScale
	if s < 1 {
		s = 1
	}
	return s
}

// BenchmarkTable6Stats regenerates the dataset statistics of Table 6.
func BenchmarkTable6Stats(b *testing.B) {
	for _, name := range bench.DatasetNames() {
		ds := loadBenchDataset(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := vr.ComputeStats(ds.Trace)
				if st.Frames == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// mcosBench drives one generator over one dataset — the primitive behind
// Figures 4-7.
func mcosBench(b *testing.B, name, method string, cfg core.Config, trace *vr.Trace) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen := newGen(method, cfg)
		for _, f := range trace.Frames() {
			gen.Process(f)
		}
	}
}

// heapPerState feeds a fresh generator of the method the first three
// quarters of the trace and returns the heap it then holds, read after a
// GC, per live state: the footprint a state costs, window ring and graph
// included.
func heapPerState(method string, cfg core.Config, trace *vr.Trace) float64 {
	frames := trace.Frames()
	frames = frames[:len(frames)*3/4]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gen := newGen(method, cfg)
	for _, f := range frames {
		gen.Process(f)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	states := gen.StateCount()
	runtime.KeepAlive(gen)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(states)
}

// fullScaleMCOSBench runs the three methods over a full-scale dataset at
// the paper's window and duration, each sub-benchmark also reporting
// heapB/state, measured once with the timer stopped.
func fullScaleMCOSBench(b *testing.B, name string) {
	ds, err := bench.Config{Seed: 1, Scale: 1}.LoadDataset(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Window: bench.DefaultWindow, Duration: bench.DefaultDuration}
	for _, m := range bench.MCOSMethods {
		var heap float64
		b.Run(m, func(b *testing.B) {
			mcosBench(b, name, m, cfg, ds.Trace)
			if heap == 0 {
				b.StopTimer()
				heap = heapPerState(m, cfg, ds.Trace)
			}
			b.ReportMetric(heap, "heapB/state")
		})
	}
}

// BenchmarkFigure4 measures MCOS generation time over full dataset
// prefixes for the three methods (Figure 4 varies the prefix length; the
// benchmark runs the longest prefix — the figure's rightmost point).
func BenchmarkFigure4(b *testing.B) {
	cfg := core.Config{Window: scaled(bench.DefaultWindow), Duration: scaled(bench.DefaultDuration)}
	for _, name := range bench.DatasetNames() {
		ds := loadBenchDataset(b, name)
		for _, m := range bench.MCOSMethods {
			b.Run(name+"/"+m, func(b *testing.B) {
				mcosBench(b, name, m, cfg, ds.Trace)
			})
		}
	}
}

// BenchmarkSSGCoherentFeed runs the three methods over V2 at the paper's
// own window (w=300, d=240, full scale): a static camera whose frames
// mostly repeat their predecessor, the feed State Traversal on the
// frame's change is built for. Figures 4-6 order the methods
// SSG < MFS ≤ NAIVE; this is where that ordering shows in ns/op.
func BenchmarkSSGCoherentFeed(b *testing.B) { fullScaleMCOSBench(b, "V2") }

// BenchmarkSSGDenseGraph runs the three methods over D2 at the same
// window and duration, full scale: a crowded feed whose SSG holds 8 553
// live states a frame on average and 17 247 at peak, about five times
// V2's. There a traversal test costs a cache miss on the node more than
// set algebra, a regime BenchmarkSSGCoherentFeed does not reach.
func BenchmarkSSGDenseGraph(b *testing.B) { fullScaleMCOSBench(b, "D2") }

// TestSSGHeapPerState budgets the heap a live SSG state holds at the
// paper's window, cut at three quarters of each trace: 615 B on D2 and
// 700 B on V2, about 5% over what 32-byte object sets measure (584 B
// and 666 B). 56-byte sets put them at 671 B and 743 B, and one 8-byte
// frame entry per frame before that at 878 B and 1 187 B.
// internal/core's TestSSGHeapBreakdown logs the parts with -v.
func TestSSGHeapPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := core.Config{Window: bench.DefaultWindow, Duration: bench.DefaultDuration}
	for _, tc := range []struct {
		name   string
		budget float64
	}{{"D2", 615}, {"V2", 700}} {
		ds, err := bench.Config{Seed: 1, Scale: 1}.LoadDataset(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		got := heapPerState("SSG", cfg, ds.Trace)
		t.Logf("%s: %.0f B per live state", tc.name, got)
		if got > tc.budget {
			t.Errorf("SSG holds %.0f B of heap per live state on %s, budget %.0f", got, tc.name, tc.budget)
		}
	}
}

// BenchmarkFigure5 sweeps the duration parameter d (one sub-benchmark per
// d value, V1 and M2 panels).
func BenchmarkFigure5(b *testing.B) {
	for _, name := range []string{"V1", "M2"} {
		ds := loadBenchDataset(b, name)
		for _, d := range []int{180, 210, 240, 270} {
			cfg := core.Config{Window: scaled(bench.DefaultWindow), Duration: scaled(d)}
			for _, m := range bench.MCOSMethods {
				b.Run(fmt.Sprintf("%s/d=%d/%s", name, d, m), func(b *testing.B) {
					mcosBench(b, name, m, cfg, ds.Trace)
				})
			}
		}
	}
}

// BenchmarkFigure6 sweeps the window size w (V1 and M2 panels).
func BenchmarkFigure6(b *testing.B) {
	for _, name := range []string{"V1", "M2"} {
		ds := loadBenchDataset(b, name)
		for _, w := range []int{300, 400, 500, 600} {
			cfg := core.Config{Window: scaled(w), Duration: scaled(bench.DefaultDuration)}
			for _, m := range bench.MCOSMethods {
				b.Run(fmt.Sprintf("%s/w=%d/%s", name, w, m), func(b *testing.B) {
					mcosBench(b, name, m, cfg, ds.Trace)
				})
			}
		}
	}
}

// BenchmarkFigure7 sweeps the occlusion parameter po (id reuse).
func BenchmarkFigure7(b *testing.B) {
	cfg := core.Config{Window: scaled(bench.DefaultWindow), Duration: scaled(bench.DefaultDuration)}
	for _, name := range []string{"V1", "M2"} {
		ds := loadBenchDataset(b, name)
		for _, po := range []int{0, 1, 2, 3} {
			trace := video.ReuseIDs(ds.Trace, po, 7)
			for _, m := range bench.MCOSMethods {
				b.Run(fmt.Sprintf("%s/po=%d/%s", name, po, m), func(b *testing.B) {
					mcosBench(b, name, m, cfg, trace)
				})
			}
		}
	}
}

func engineBench(b *testing.B, ds *bench.Dataset, queries int, nmin int, method engine.Method, prune bool) {
	b.Helper()
	var qs = bench.MixedWorkload(queries, scaled(bench.DefaultWindow), scaled(bench.DefaultDuration), 1)
	if nmin > 0 {
		qs = bench.GEWorkload(queries, nmin, scaled(bench.DefaultWindow), scaled(bench.DefaultDuration), 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(qs, engine.Options{
			Method:   method,
			Prune:    prune,
			Registry: vr.NewRegistry(ds.Reg.Names()...),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range ds.Trace.Frames() {
			eng.ProcessFrame(f)
		}
	}
}

// BenchmarkFigure8 varies the number of queries (MCOS generation plus
// query evaluation) on the paper's two panels, V1 and M2.
func BenchmarkFigure8(b *testing.B) {
	for _, name := range []string{"V1", "M2"} {
		ds := loadBenchDataset(b, name)
		for _, n := range []int{10, 30, 50} {
			for _, m := range []engine.Method{engine.MethodNaive, engine.MethodMFS, engine.MethodSSG} {
				b.Run(fmt.Sprintf("%s/q=%d/%s", name, n, m), func(b *testing.B) {
					engineBench(b, ds, n, 0, m, false)
				})
			}
		}
	}
}

// BenchmarkSessionIngest replays V2 at full scale through
// Session.ProcessFrame of a single-engine SSG session holding 30 mixed
// queries at w=300, d=240 (dense-static's shape, one clip): the
// generator and the evaluation beneath it, plus what the session adds
// per frame, which the engine-level panels do not see.
func BenchmarkSessionIngest(b *testing.B) {
	ds, err := bench.Config{Seed: 1, Scale: 1}.LoadDataset("V2")
	if err != nil {
		b.Fatal(err)
	}
	qs := bench.MixedWorkload(30, bench.DefaultWindow, bench.DefaultDuration, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := tvq.Open(nil, tvq.WithQueries(qs...), tvq.WithRegistry(ds.Reg))
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range ds.Trace.Frames() {
			if _, err := s.ProcessFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	}
	b.ReportMetric(float64(ds.Trace.Len()), "frames/op")
}

// BenchmarkQueryScaling measures per-frame cost against the number of
// standing subscriptions, 10 → 10k, drawn from a fixed
// bench.ScalingShapes-body catalog (the serving fleet model: many
// subscribers, few distinct query shapes). The shared query plan
// hash-conses bodies across subscriptions and evaluates each distinct
// predicate once per state, so time/op must grow sublinearly across
// the three decades — the q=10000 run staying within a small factor of
// q=10 rather than 1000×.
func BenchmarkQueryScaling(b *testing.B) {
	ds := loadBenchDataset(b, "M2")
	for _, n := range bench.ScalingQueryCounts {
		qs := bench.ScalingWorkload(n, bench.ScalingShapes, scaled(bench.DefaultWindow), scaled(bench.DefaultDuration), 1)
		b.Run(fmt.Sprintf("q=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := engine.New(qs, engine.Options{
					Method:   engine.MethodMFS,
					Registry: vr.NewRegistry(ds.Reg.Names()...),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range ds.Trace.Frames() {
					eng.ProcessFrame(f)
				}
			}
		})
	}
}

// BenchmarkFigure9 evaluates the §5.3 pruning strategy: ≥-only workloads
// with varying n_min, with and without result-driven termination.
func BenchmarkFigure9(b *testing.B) {
	type variant struct {
		label  string
		method engine.Method
		prune  bool
	}
	variants := []variant{
		{"NAIVE_E", engine.MethodNaive, false},
		{"MFS_E", engine.MethodMFS, false},
		{"SSG_E", engine.MethodSSG, false},
		{"MFS_O", engine.MethodMFS, true},
		{"SSG_O", engine.MethodSSG, true},
	}
	for _, name := range []string{"D2", "M2"} {
		ds := loadBenchDataset(b, name)
		for _, nmin := range []int{1, 5, 9} {
			for _, v := range variants {
				b.Run(fmt.Sprintf("%s/nmin=%d/%s", name, nmin, v.label), func(b *testing.B) {
					engineBench(b, ds, 100, nmin, v.method, v.prune)
				})
			}
		}
	}
}

// BenchmarkFigure10 measures the end-to-end pipeline — scene generation
// through the simulated detector/tracker into query evaluation — per
// dataset, 50 queries, SSG.
func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	for _, name := range bench.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, err := cfg.LoadDataset(name)
				if err != nil {
					b.Fatal(err)
				}
				qs := bench.MixedWorkload(50, scaled(bench.DefaultWindow), scaled(bench.DefaultDuration), 1)
				eng, err := engine.New(qs, engine.Options{Registry: vr.NewRegistry(ds.Reg.Names()...)})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range ds.Trace.Frames() {
					eng.ProcessFrame(f)
				}
			}
		})
	}
}

// BenchmarkDaemonIngest measures the tvqd wire path per codec: frames
// pre-encoded into batches are POSTed to an in-process serving stack,
// so the benchmark covers HTTP dispatch, frame decode, and the engine's
// retain path (ownership transfer for binary, clone-on-retain for
// JSONL). bytes/op is wire bytes ingested.
func BenchmarkDaemonIngest(b *testing.B) {
	ds := loadBenchDataset(b, "M2")
	for _, codec := range []tvq.Codec{tvq.JSONLCodec, tvq.BinaryCodec} {
		b.Run(codec.Name(), func(b *testing.B) {
			batches, wireBytes, err := bench.EncodeBatches(ds.Trace, codec, ds.Reg, bench.IngestBatchFrames)
			if err != nil {
				b.Fatal(err)
			}
			srv := server.New(server.Config{
				Registry:       vr.NewRegistry(ds.Reg.Names()...),
				MaxBatchFrames: bench.IngestBatchFrames,
			})
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Shutdown() }()

			post := func(url, ct string, body []byte) {
				resp, err := http.Post(url, ct, bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
				resp.Body.Close()
				if resp.StatusCode >= 300 {
					b.Fatalf("POST %s: %d %s", url, resp.StatusCode, msg)
				}
			}
			b.SetBytes(wireBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Each iteration ingests into a fresh session — the feed
				// cursor only moves forward, so frames cannot be replayed
				// into an existing one.
				name := fmt.Sprintf("bench-%s-%d", codec.Name(), i)
				post(ts.URL+"/v1/sessions", "application/json",
					[]byte(fmt.Sprintf(`{"name":%q,"queries":[{"id":1,"query":"bus >= 4","window":%d,"duration":%d}]}`,
						name, scaled(bench.DefaultWindow), scaled(bench.DefaultDuration))))
				for _, batch := range batches {
					post(ts.URL+"/v1/feeds/0/frames?session="+name, codec.ContentType(), batch)
				}
				// Drop the session so iterations don't pile up live engines.
				req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+name, nil)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
			}
		})
	}
}

// BenchmarkServedIngest measures the served loop as the serve-disorder
// workload drives it, in one process: tvqclient posts 8-frame batches,
// round-robin over 8 feeds and displaced by at most one position, to an
// httptest tvqd whose session is a 2-worker ShardByFeed pool at
// disorder 8, while a second connection reads query 1's match stream.
// An op is a lap of about one trace per feed (24 batches a feed at
// benchScale); allocs/op counts both sides.
func BenchmarkServedIngest(b *testing.B) {
	const feeds, batch = 8, 8
	traces, err := benchConfig().MultiFeed("D1", feeds)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := tvqclient.New(ts.URL, tvqclient.WithSession("served"), tvqclient.WithBatch(batch))
	if _, err := c.CreateSession(ctx, "served", tvqclient.SessionParams{
		Workers: 2, Shard: "feed", Disorder: 8,
		Queries: []tvqclient.QueryParams{{ID: 1, Query: "bus >= 1", Window: 30, Duration: 15}},
	}); err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Int64
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for _, err := range c.Stream(ctx, 1) {
			if err != nil {
				return
			}
			delivered.Add(1)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(metricsText(b, ts.URL), "tvq_streams_active 1"); {
		if time.Now().After(deadline) {
			b.Fatal("match stream never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Feed f's frame at position p is its trace's frame p mod len, with
	// the frame id moved on by a trace length per lap; swapping each
	// pair of positions displaces every frame by one.
	frame := func(f, p int) tvq.Frame {
		tr := traces[f]
		fr := tr.Frame(p % tr.Len())
		fr.FID += int64(p / tr.Len() * tr.Len())
		return fr
	}
	rounds := (traces[0].Len() + batch - 1) / batch
	frames := make([]tvq.Frame, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rounds; r++ {
			lo := (i*rounds + r) * batch
			for f := 0; f < feeds; f++ {
				for k := range frames {
					frames[k] = frame(f, lo+(k^1))
				}
				if _, err := c.Ingest(ctx, tvq.FeedID(f), frames); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered.Load())/float64(b.N), "deliveries/op")
	cancel()
	<-streamDone
}

func metricsText(b *testing.B, base string) string {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	return string(text)
}

// BenchmarkAblationEmission isolates the emission-time maximality filter:
// DESIGN.md calls it out as the exactness safety net; this measures what
// it costs on top of raw state maintenance.
func BenchmarkAblationEmission(b *testing.B) {
	ds := loadBenchDataset(b, "M2")
	cfg := core.Config{Window: scaled(bench.DefaultWindow), Duration: 1}
	b.Run("d=1-emit-heavy", func(b *testing.B) {
		mcosBench(b, "M2", "MFS", cfg, ds.Trace)
	})
	cfgTight := core.Config{Window: scaled(bench.DefaultWindow), Duration: scaled(bench.DefaultDuration)}
	b.Run("d=default-emit-light", func(b *testing.B) {
		mcosBench(b, "M2", "MFS", cfgTight, ds.Trace)
	})
}

// BenchmarkAblationClassFilter measures the §3 class-filter push-down:
// queries referencing one class on a four-class feed, with and without
// dropping unrequested classes.
func BenchmarkAblationClassFilter(b *testing.B) {
	ds := loadBenchDataset(b, "M2")
	qs := []string{"person >= 2"}
	for _, keepAll := range []bool{false, true} {
		label := "pushdown"
		if keepAll {
			label = "keep-all"
		}
		b.Run(label, func(b *testing.B) {
			q, err := tvq.ParseQuery(1, qs[0], scaled(bench.DefaultWindow), scaled(bench.DefaultDuration))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := engine.New([]tvq.Query{q}, engine.Options{
					KeepAllClasses: keepAll,
					Registry:       vr.NewRegistry(ds.Reg.Names()...),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range ds.Trace.Frames() {
					eng.ProcessFrame(f)
				}
			}
		})
	}
}

// BenchmarkJSONLSinkDeliver measures the match encoder on the shape the
// sparse-fanout workload produces — a few objects, a window's worth of
// consecutive frame ids. sparse and dense (a bitmap object set) deliver
// 8 states per frame, each with its own frame list, so every line is
// encoded in full; the benchmark workloads bring one sink 1.2 to 5
// states per frame on average. shared delivers one state to 64 query
// ids per frame, so the sink encodes its objects and frames once and
// the other 63 lines reuse them. One op is 10000 deliveries, so that
// the CI gate's -benchtime=2x measures milliseconds; a warm sink must
// report 0 allocs/op.
func BenchmarkJSONLSinkDeliver(b *testing.B) {
	const deliveries = 10000
	// Copies of one list: the same ids in distinct blocks.
	lists := make([][]tvq.FrameID, 8)
	for k := range lists {
		lists[k] = make([]tvq.FrameID, 48)
		for i := range lists[k] {
			lists[k][i] = tvq.FrameID(967 + i) // crosses 999→1000
		}
	}
	dense := make([]objset.ID, 24)
	for i := range dense {
		dense[i] = objset.ID(640 + i)
	}
	sparse := objset.New(412, 436, 3077)
	for _, c := range []struct {
		name     string
		objs     objset.Set
		perFrame int
		shared   bool
	}{
		{"sparse", sparse, len(lists), false},
		{"dense", objset.New(dense...), len(lists), false},
		{"shared", sparse, 64, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			sink := tvq.NewJSONLSink(io.Discard)
			d := tvq.Delivery{FID: 1014, Match: tvq.Match{QueryID: 731, Objects: c.objs, Frames: lists[0]}}
			deliver := func(k int) {
				d.FID = tvq.FrameID(1014 + k/c.perFrame)
				d.Match.QueryID = 731 + k%c.perFrame
				if !c.shared {
					d.Match.Frames = lists[k%c.perFrame]
				}
				if err := sink.Deliver(d); err != nil {
					b.Fatal(err)
				}
			}
			for k := range c.perFrame { // the buffers reach their size
				deliver(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range deliveries {
					deliver(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deliveries), "ns/delivery")
		})
	}
}

// BenchmarkEvaluateFanout measures shared-plan evaluation where fan-out
// dominates: 1000 subscriptions round-robin over 32 ≥-only bodies with
// thresholds 1–3 (the sparse-fanout shape) against one frame's result
// states of M1. One op is 100 EvaluateStates calls; the cost should
// follow matches/call. The states do not change between calls, so
// every frame list comes from its state's frame log, and allocs/op must
// stay at one per call, the []Match.
func BenchmarkEvaluateFanout(b *testing.B) {
	const calls = 100
	ds := loadBenchDataset(b, "M1")
	r := rand.New(rand.NewSource(1))
	labels := []string{"person", "car", "truck", "bus"}
	bodies := make([][]cnf.Disjunction, 32)
	for i := range bodies {
		for c, nc := 0, 1+r.Intn(3); c < nc; c++ {
			var d cnf.Disjunction
			for j, nj := 0, 1+r.Intn(2); j < nj; j++ {
				d = append(d, cnf.Condition{Label: labels[r.Intn(len(labels))], Op: cnf.GE, N: 1 + r.Intn(3)})
			}
			bodies[i] = append(bodies[i], d)
		}
	}
	const window, duration = 60, 30
	qs := make([]cnf.Query, 1000)
	for i := range qs {
		qs[i] = cnf.Query{ID: i + 1, Window: window, Duration: duration, Clauses: bodies[i%len(bodies)]}
	}
	ev, err := query.NewEvaluator(vr.NewRegistry(ds.Reg.Names()...), qs)
	if err != nil {
		b.Fatal(err)
	}

	// The states of the frame with the most of them; they stay valid
	// because the generator is not driven past it.
	cfg := core.Config{Window: window, Duration: duration}
	best, most := 0, -1
	gen := core.NewMFS(cfg)
	for i, f := range ds.Trace.Frames() {
		if n := len(gen.Process(f)); n > most {
			best, most = i, n
		}
	}
	classes := map[objset.ID]vr.Class{}
	classOf := func(id objset.ID) vr.Class { return classes[id] }
	gen = core.NewMFS(cfg)
	var states []*core.State
	for _, f := range ds.Trace.Frames()[:best+1] {
		for id, c := range f.Classes {
			classes[id] = c
		}
		states = gen.Process(f)
	}

	matches := len(ev.EvaluateStates(states, classOf))
	if matches == 0 {
		b.Fatal("no matches: the benchmark measures nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range calls {
			if got := len(ev.EvaluateStates(states, classOf)); got != matches {
				b.Fatalf("%d matches, then %d", matches, got)
			}
		}
	}
	b.ReportMetric(float64(matches), "matches/call")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls*matches), "ns/match")
}

// snapshotBenchSession is churn-checkpoint's session without its churn:
// a two-worker group-sharded SSG pool over 10+10 mixed queries at w=300
// and w=150, fed the first 1000 frames of D2 at full scale, which leaves
// it holding more than 5 000 live states.
func snapshotBenchSession(b *testing.B) *tvq.Session {
	b.Helper()
	ds, err := bench.Config{Seed: 1, Scale: 1}.LoadDataset("D2")
	if err != nil {
		b.Fatal(err)
	}
	qs := append(bench.MixedWorkload(10, 300, 240, 1), bench.MixedWorkload(10, 150, 120, 2)...)
	for i := range qs {
		qs[i].ID = i + 1
	}
	s, err := tvq.Open(nil, tvq.WithQueries(qs...), tvq.WithRegistry(ds.Reg),
		tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup))
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range ds.Trace.Frames()[:1000] {
		if _, err := s.ProcessFrame(f); err != nil {
			b.Fatal(err)
		}
	}
	if n := s.StateCount(); n < 5000 {
		b.Fatalf("the session holds %d live states, want at least 5000", n)
	}
	return s
}

// BenchmarkSessionSnapshot times Session.Snapshot of that session into a
// reused buffer, the way a checkpoint cadence takes them.
func BenchmarkSessionSnapshot(b *testing.B) {
	s := snapshotBenchSession(b)
	defer s.Close()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/1024, "KiB/snapshot")
}

// BenchmarkResume times tvq.Resume of that session's snapshot.
func BenchmarkResume(b *testing.B) {
	s := snapshotBenchSession(b)
	var buf bytes.Buffer
	err := s.Snapshot(&buf)
	s.Close()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tvq.Resume(nil, bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.ReportMetric(float64(buf.Len())/1024, "KiB/snapshot")
}
