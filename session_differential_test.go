package tvq_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tvq"
)

// Differential harness for the Session API: randomized traces with a
// mid-trace subscribe/cancel schedule must behave identically on
// single-engine and pooled sessions, and the subscribed query's match
// stream must agree with a fresh static run over the trace suffix it
// actually observed. Every workload lives in a subtest named by its
// seed:
//
//	go test -run 'TestDifferentialSessionSubscribe/seed=6003' .

// sessionKind is one execution shape: a name and the options that
// open it.
type sessionKind struct {
	name string
	opts []tvq.Option
}

// sessionKinds are the execution shapes under test; every one must be
// observationally identical through the Session API.
var sessionKinds = []sessionKind{
	{"single", nil},
	{"pool-bygroup", []tvq.Option{tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup)}},
	{"pool-byfeed", []tvq.Option{tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByFeed)}},
}

var diffClasses = []string{"person", "car", "truck", "bus"}

// randomSessionTrace builds an adversarial trace through the public
// API: objects flicker in and out, frames repeat, and some frames are
// empty.
func randomSessionTrace(t *testing.T, rng *rand.Rand) *tvq.Trace {
	t.Helper()
	reg := tvq.StandardRegistry()
	frames := 40 + rng.Intn(80)
	nobjects := 4 + rng.Intn(10)
	class := make([]tvq.Tuple, nobjects)
	for id := 0; id < nobjects; id++ {
		class[id] = tvq.Tuple{ID: uint32(id + 1), Class: reg.Class(diffClasses[rng.Intn(len(diffClasses))])}
	}
	alive := make(map[int]bool)
	var tuples []tvq.Tuple
	emit := func(fid int64) {
		for id := range class {
			if alive[id] {
				tuples = append(tuples, tvq.Tuple{FID: fid, ID: class[id].ID, Class: class[id].Class})
			}
		}
	}
	for fid := int64(0); fid < int64(frames); fid++ {
		switch {
		case fid > 0 && rng.Float64() < 0.1:
			// repeat the previous frame exactly
		case rng.Float64() < 0.07:
			alive = make(map[int]bool) // empty frame
		default:
			for id := 0; id < nobjects; id++ {
				if alive[id] {
					if rng.Float64() < 0.2 {
						delete(alive, id)
					}
				} else if rng.Float64() < 0.25 {
					alive[id] = true
				}
			}
		}
		emit(fid)
	}
	tr, err := tvq.NewTraceFromTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomCondQuery builds a ≥/≤/=-mixed conjunctive query over the class
// domain.
func randomCondQuery(rng *rand.Rand, id, window int) tvq.Query {
	duration := 1 + rng.Intn(window)
	text := ""
	nclauses := 1 + rng.Intn(2)
	ops := []string{">=", "<=", "="}
	for c := 0; c < nclauses; c++ {
		if c > 0 {
			text += " AND "
		}
		text += fmt.Sprintf("%s %s %d", diffClasses[rng.Intn(len(diffClasses))], ops[rng.Intn(len(ops))], rng.Intn(3))
	}
	return tvq.MustQuery(id, text, window, duration)
}

// shiftedKey is a canonical match identity with all frame ids shifted
// by delta, so a suffix run (frames renumbered from 0) can be compared
// against the live session's absolute ids.
func shiftedKey(fid int64, m tvq.Match, delta int64) string {
	frames := make([]int64, len(m.Frames))
	for i, f := range m.Frames {
		frames[i] = f + delta
	}
	return fmt.Sprintf("%d|q%d|%v|%v", fid+delta, m.QueryID, m.Objects, frames)
}

// suffixFrames re-bases the trace's frames [cut:] to start at frame 0,
// preserving empty frames (a rebuilt trace would drop trailing ones,
// and windows ending on an empty frame can still match).
func suffixFrames(tr *tvq.Trace, cut int64) []tvq.Frame {
	src := tr.Frames()[cut:]
	out := make([]tvq.Frame, len(src))
	for i, f := range src {
		f.FID = int64(i)
		out[i] = f
	}
	return out
}

// sessionSchedule runs one session kind over the trace with the given
// subscribe/cancel schedule and returns (per-query match streams, the
// subscribed query's sink stream).
func sessionSchedule(t *testing.T, tr *tvq.Trace, base []tvq.Query, subQ tvq.Query, cut1, cut2 int64, opts []tvq.Option) (map[int][]string, []string) {
	t.Helper()
	s, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQueries(base...)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var sinkStream []string
	var sub *tvq.Subscription
	streams := make(map[int][]string)
	for _, f := range tr.Frames() {
		if f.FID == cut1 {
			sub, err = s.Subscribe(subQ, tvq.WithSink(tvq.SinkFunc(func(d tvq.Delivery) error {
				sinkStream = append(sinkStream, shiftedKey(d.FID, d.Match, 0))
				return nil
			})))
			if err != nil {
				t.Fatal(err)
			}
		}
		if f.FID == cut2 && sub != nil {
			if err := sub.Cancel(); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := s.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			streams[m.QueryID] = append(streams[m.QueryID], shiftedKey(f.FID, m, 0))
		}
	}
	return streams, sinkStream
}

func TestDifferentialSessionSubscribe(t *testing.T) {
	matched := 0
	for i := 0; i < 15; i++ {
		seed := int64(6000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomSessionTrace(t, rng)
			nbase := 1 + rng.Intn(2)
			base := make([]tvq.Query, nbase)
			for qi := range base {
				base[qi] = randomCondQuery(rng, qi+1, 2+rng.Intn(10))
			}
			// The subscribed query opens a window size no base query
			// uses, so its state starts fresh at the subscribe point and
			// a static run over the suffix is an exact oracle.
			subWindow := 13 + rng.Intn(6)
			subQ := randomCondQuery(rng, 50, subWindow)
			cut1 := int64(tr.Len()/4 + rng.Intn(tr.Len()/4))
			cut2 := cut1 + 1 + rng.Int63n(int64(tr.Len())-cut1-1)

			var refStreams map[int][]string
			var refSink []string
			for _, kind := range sessionKinds {
				streams, sink := sessionSchedule(t, tr, base, subQ, cut1, cut2, kind.opts)
				if kind.name == "single" {
					refStreams, refSink = streams, sink
					continue
				}
				for qid, want := range refStreams {
					if got := fmt.Sprint(streams[qid]); got != fmt.Sprint(want) {
						t.Errorf("%s: query %d stream diverges from single-engine session\nrepro: go test -run 'TestDifferentialSessionSubscribe/seed=%d' .", kind.name, qid, seed)
					}
				}
				if len(streams) != len(refStreams) {
					t.Errorf("%s: query set of streams differs", kind.name)
				}
				if fmt.Sprint(sink) != fmt.Sprint(refSink) {
					t.Errorf("%s: sink stream diverges from single-engine session", kind.name)
				}
			}

			// Sink deliveries and result-carried matches must agree.
			if fmt.Sprint(refSink) != fmt.Sprint(refStreams[subQ.ID]) {
				t.Errorf("sink stream and result stream disagree for the subscription")
			}

			// Fresh static oracle over the observed suffix: the
			// subscription saw frames [cut1, cut2).
			oracle, err := tvq.Open(nil, tvq.WithQueries(subQ))
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			var want []string
			for _, f := range suffixFrames(tr, cut1) {
				if f.FID+cut1 >= cut2 {
					break
				}
				ms, err := oracle.ProcessFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ms {
					want = append(want, shiftedKey(f.FID, m, cut1))
				}
			}
			if fmt.Sprint(refSink) != fmt.Sprint(want) {
				t.Errorf("subscription stream diverges from fresh static run over the suffix (%d vs %d matches)\nrepro: go test -run 'TestDifferentialSessionSubscribe/seed=%d' .",
					len(refSink), len(want), seed)
			}
			matched += len(refSink)
			for _, st := range refStreams {
				matched += len(st)
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}

// TestDifferentialSessionSnapshotResume folds checkpointing in: a
// session with a live subscription snapshotted at a random cut, at least
// the widest window before the end, must round-trip, and resumed must
// reproduce the uninterrupted run on every session kind. The
// subscription opens a window group mid-trace, so the snapshot records a
// group start above zero.
func TestDifferentialSessionSnapshotResume(t *testing.T) {
	matched := 0
	for i := 0; i < 10; i++ {
		seed := int64(7000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomSessionTrace(t, rng)
			base := []tvq.Query{randomCondQuery(rng, 1, 2+rng.Intn(10))}
			subQ := randomCondQuery(rng, 50, 13+rng.Intn(6))
			cut1 := int64(rng.Intn(tr.Len() / 3)) // subscribe
			// snapshot/crash, leaving at least the subscription's window
			cut3 := cut1 + 1 + rng.Int63n(int64(tr.Len()-subQ.Window)-cut1-1)
			for _, kind := range sessionKinds {
				streams, sink := sessionSchedule(t, tr, base, subQ, cut1, int64(tr.Len())+1, kind.opts)

				s, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQueries(base...)}, kind.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				var gotSink []string
				collect := tvq.SinkFunc(func(d tvq.Delivery) error {
					gotSink = append(gotSink, shiftedKey(d.FID, d.Match, 0))
					return nil
				})
				got := make(map[int][]string)
				record := func(s *tvq.Session, frames []tvq.Frame) {
					t.Helper()
					for _, f := range frames {
						if f.FID == cut1 {
							if _, err := s.Subscribe(subQ, tvq.WithSink(collect)); err != nil {
								t.Fatal(err)
							}
						}
						ms, err := s.ProcessFrame(f)
						if err != nil {
							t.Fatal(err)
						}
						for _, m := range ms {
							got[m.QueryID] = append(got[m.QueryID], shiftedKey(f.FID, m, 0))
						}
					}
				}
				record(s, tr.Frames()[:cut3])
				var buf bytes.Buffer
				if err := s.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				s.Close()

				resumed := resumeRoundTrip(t, buf.Bytes(), tvq.WithSubscriptionSinks(func(tvq.Query) tvq.Sink {
					return collect
				}))
				if n := len(resumed.Subscriptions()); cut1 < cut3 && n != 1 {
					t.Fatalf("%s: %d restored subscriptions, want 1", kind.name, n)
				}
				record(resumed, tr.Frames()[cut3:])
				resumed.Close()

				if fmt.Sprint(got) != fmt.Sprint(streams) {
					t.Errorf("%s: resumed session diverges from uninterrupted run\nrepro: go test -run 'TestDifferentialSessionSnapshotResume/seed=%d' .", kind.name, seed)
				}
				if fmt.Sprint(gotSink) != fmt.Sprint(sink) {
					t.Errorf("%s: resumed sink stream diverges (%d vs %d)", kind.name, len(gotSink), len(sink))
				}
				matched += len(gotSink) + len(got[1])
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}

// TestDifferentialSessionStrategies runs the cross-strategy harness
// through the v2 surface: Naive, MFS and SSG sessions — single-engine
// and pooled — driven by the range-over-func Stream, with a query
// subscribed mid-stream, must emit identical match streams.
func TestDifferentialSessionStrategies(t *testing.T) {
	methods := []tvq.Method{tvq.MethodNaive, tvq.MethodMFS, tvq.MethodSSG}
	matched := 0
	for i := 0; i < 12; i++ {
		seed := int64(8000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomSessionTrace(t, rng)
			nbase := 1 + rng.Intn(2)
			base := make([]tvq.Query, nbase)
			for qi := range base {
				base[qi] = randomCondQuery(rng, qi+1, 2+rng.Intn(10))
			}
			subQ := randomCondQuery(rng, 50, 13+rng.Intn(6))
			cut := int64(tr.Len() / 3)

			for _, kind := range sessionKinds {
				var ref []string
				for mi, method := range methods {
					s, err := tvq.Open(nil, append([]tvq.Option{
						tvq.WithQueries(base...),
						tvq.WithMethod(method),
					}, kind.opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					subscribed := false
					for f, ms := range s.Stream(context.Background(), tvq.TraceFrames(tr)) {
						for _, m := range ms {
							got = append(got, shiftedKey(f.FID, m, 0))
						}
						// Mid-stream registration: the loop body runs
						// between frames, so Subscribe is safe here. All
						// methods yield identical streams, so the trigger
						// frame is identical too and the runs stay
						// comparable.
						if !subscribed && f.FID >= cut {
							if _, err := s.Subscribe(subQ); err != nil {
								t.Fatal(err)
							}
							subscribed = true
						}
					}
					if err := s.Err(); err != nil {
						t.Fatal(err)
					}
					s.Close()
					if mi == 0 {
						ref = got
					} else if fmt.Sprint(got) != fmt.Sprint(ref) {
						t.Errorf("%s/%s diverges from %s (%d vs %d matches)\nrepro: go test -run 'TestDifferentialSessionStrategies/seed=%d' .",
							kind.name, method, methods[0], len(got), len(ref), seed)
					}
				}
				matched += len(ref)
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}

// flickerSessionTrace builds a temporally coherent trace through the
// public API, the shape real video has and randomSessionTrace (a fifth
// of the objects leave and a quarter enter on every frame) does not:
// objects persist, drop out for one to three frames and return, the
// scene holds still for stretches, and now and then a frame is empty.
// Most frames bring no object their predecessor lacked. It also returns
// a frame count to cut at: the end of the longest run of such frames.
func flickerSessionTrace(t *testing.T, rng *rand.Rand) (*tvq.Trace, int64) {
	t.Helper()
	reg := tvq.StandardRegistry()
	frames := 80 + rng.Intn(80)
	nobjects := 5 + rng.Intn(6)
	object := make([]tvq.Tuple, nobjects)
	for id := range object {
		object[id] = tvq.Tuple{ID: uint32(id + 1), Class: reg.Class(diffClasses[rng.Intn(len(diffClasses))])}
	}
	present := make([]bool, nobjects)
	hidden := make([]int, nobjects)
	shown := make([]bool, nobjects) // in the previous frame
	var tuples []tvq.Tuple
	freeze, run, best, cut := 0, 0, 0, int64(frames/2)
	for fid := int64(0); fid < int64(frames); fid++ {
		switch {
		case freeze > 0:
			freeze--
		case rng.Intn(10) == 0:
			freeze = 2 + rng.Intn(8)
		default:
			for id := range present {
				switch {
				case hidden[id] > 0:
					hidden[id]--
				case !present[id]:
					present[id] = rng.Intn(8) == 0
				case rng.Intn(20) == 0:
					present[id] = false
				case rng.Intn(10) == 0:
					hidden[id] = 1 + rng.Intn(3)
				}
			}
		}
		blackout := rng.Intn(30) == 0
		arrival, any := false, false
		for id := range present {
			show := present[id] && hidden[id] == 0 && !blackout
			if show {
				tuples = append(tuples, tvq.Tuple{FID: fid, ID: object[id].ID, Class: object[id].Class})
				arrival = arrival || !shown[id]
				any = true
			}
			shown[id] = show
		}
		if run++; arrival || !any {
			run = 0
		}
		if run > best && fid+1 < int64(frames) {
			best, cut = run, fid+1
		}
	}
	tr, err := tvq.NewTraceFromTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return tr, min(cut, int64(tr.Len())-1)
}

// TestDifferentialSessionFlicker is the cross-strategy harness on
// coherent feeds: Naive, MFS and SSG sessions, single-engine and on both
// pool kinds, must write the same JSONL bytes to a subscription's sink
// and return the same matches — and so must an SSG session snapshotted
// and resumed at the end of the trace's longest run of frames without an
// arrival, where the resumed generator's first frame rests entirely on
// the list of nodes the snapshot does not carry.
func TestDifferentialSessionFlicker(t *testing.T) {
	methods := []tvq.Method{tvq.MethodNaive, tvq.MethodMFS, tvq.MethodSSG}
	matched := 0
	for i := 0; i < 10; i++ {
		seed := int64(9100 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr, cut := flickerSessionTrace(t, rng)
			base := []tvq.Query{
				randomCondQuery(rng, 1, 2+rng.Intn(10)),
				randomCondQuery(rng, 2, 12+rng.Intn(30)),
			}
			subQ := randomCondQuery(rng, 50, 5+rng.Intn(25))

			// run drives one session over the trace, snapshotting and
			// resuming at resumeAt (never, when negative).
			run := func(method tvq.Method, opts []tvq.Option, resumeAt int64) (string, []byte) {
				t.Helper()
				var sink bytes.Buffer
				s, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQueries(base...), tvq.WithMethod(method)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Subscribe(subQ, tvq.WithSink(tvq.NewJSONLSink(&sink))); err != nil {
					t.Fatal(err)
				}
				got := make(map[int][]string) // per query: a pool orders a frame's matches by group
				for _, f := range tr.Frames() {
					if f.FID == resumeAt {
						var snap bytes.Buffer
						if err := s.Snapshot(&snap); err != nil {
							t.Fatal(err)
						}
						s.Close()
						s, err = tvq.Resume(nil, &snap, tvq.WithSubscriptionSinks(func(tvq.Query) tvq.Sink {
							return tvq.NewJSONLSink(&sink)
						}))
						if err != nil {
							t.Fatalf("Resume: %v", err)
						}
					}
					ms, err := s.ProcessFrame(f)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						got[m.QueryID] = append(got[m.QueryID], shiftedKey(f.FID, m, 0))
					}
				}
				s.Close()
				return fmt.Sprint(got), sink.Bytes()
			}

			refMatches, refSink := run(tvq.MethodNaive, nil, -1)
			check := func(name string, matches string, sink []byte) {
				t.Helper()
				if matches != refMatches {
					t.Errorf("%s: matches diverge from single/%s\nrepro: go test -run 'TestDifferentialSessionFlicker/seed=%d' .", name, methods[0], seed)
				}
				if !bytes.Equal(sink, refSink) {
					t.Errorf("%s: sink bytes diverge from single/%s (%d vs %d bytes)", name, methods[0], len(sink), len(refSink))
				}
			}
			for _, kind := range sessionKinds {
				for _, method := range methods {
					matches, sink := run(method, kind.opts, -1)
					check(fmt.Sprintf("%s/%s", kind.name, method), matches, sink)
				}
				matches, sink := run(tvq.MethodSSG, kind.opts, cut)
				check(fmt.Sprintf("%s/%s resumed at %d", kind.name, tvq.MethodSSG, cut), matches, sink)
			}
			matched += len(refSink)
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}

// TestSessionSubscribeFirst pins the open-session-then-Subscribe-first
// flow, single and pooled: a session opened with no queries processes
// frames (matching nothing, panicking nowhere), a mid-stream Subscribe
// creates the first window group, and from then on the subscription's
// stream equals a fresh static session over the suffix it observed.
func TestSessionSubscribeFirst(t *testing.T) {
	q := tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5)
	for _, kind := range sessionKinds {
		t.Run(kind.name, func(t *testing.T) {
			tr := sessionTrace(t)
			s, err := tvq.Open(nil, kind.opts...) // no queries yet
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const cut = int64(15)
			var got []string
			for _, f := range tr.Frames() {
				if f.FID == cut {
					if _, err := s.Subscribe(q); err != nil {
						t.Fatal(err)
					}
				}
				ms, err := s.ProcessFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				if f.FID < cut && len(ms) > 0 {
					t.Fatalf("query-less session matched at frame %d: %+v", f.FID, ms)
				}
				for _, m := range ms {
					got = append(got, shiftedKey(f.FID, m, 0))
				}
			}

			oracle, err := tvq.Open(nil, tvq.WithQueries(q))
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()
			var want []string
			for _, f := range suffixFrames(tr, cut) {
				ms, err := oracle.ProcessFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ms {
					want = append(want, shiftedKey(f.FID, m, cut))
				}
			}
			if len(want) == 0 {
				t.Fatal("oracle produced no matches; test is vacuous")
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("subscribe-first stream diverges from fresh static run (%d vs %d matches)", len(got), len(want))
			}
		})
	}
}

// TestDifferentialSessionChurn hammers the shared plan's incremental
// patching: several subscriptions arrive and cancel mid-trace, each on
// its own window size, and every (strategy × session kind) run must
// produce the identical per-query streams — which must in turn equal a
// fresh static per-query session over exactly the frames each
// subscription observed. This is the shared-plan ≡ fresh-per-query-run
// oracle of the differential harness, exercised under churn.
func TestDifferentialSessionChurn(t *testing.T) {
	methods := []tvq.Method{tvq.MethodNaive, tvq.MethodMFS, tvq.MethodSSG}
	matched := 0
	for i := 0; i < 8; i++ {
		seed := int64(9000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomSessionTrace(t, rng)
			nbase := 1 + rng.Intn(2)
			base := make([]tvq.Query, nbase)
			for qi := range base {
				base[qi] = randomCondQuery(rng, qi+1, 2+rng.Intn(10))
			}
			// Each churn interval gets a unique window size (base windows
			// are ≤ 11), so its group state starts fresh at the subscribe
			// point and a static suffix run is an exact oracle.
			type interval struct {
				q         tvq.Query
				at, until int64
			}
			ivs := make([]interval, 3+rng.Intn(3))
			for ci := range ivs {
				at := int64(rng.Intn(tr.Len() - 2))
				until := at + 1 + rng.Int63n(int64(tr.Len())-at-1)
				ivs[ci] = interval{q: randomCondQuery(rng, 100+ci, 12+ci), at: at, until: until}
			}

			runOne := func(method tvq.Method, opts []tvq.Option) map[int][]string {
				t.Helper()
				s, err := tvq.Open(nil, append([]tvq.Option{
					tvq.WithQueries(base...),
					tvq.WithMethod(method),
				}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				subs := make(map[int]*tvq.Subscription)
				streams := make(map[int][]string)
				for _, f := range tr.Frames() {
					for ci, iv := range ivs {
						if iv.at == f.FID {
							if subs[ci], err = s.Subscribe(iv.q); err != nil {
								t.Fatal(err)
							}
						}
						if iv.until == f.FID && subs[ci] != nil {
							if err := subs[ci].Cancel(); err != nil {
								t.Fatal(err)
							}
						}
					}
					ms, err := s.ProcessFrame(f)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						streams[m.QueryID] = append(streams[m.QueryID], shiftedKey(f.FID, m, 0))
					}
				}
				return streams
			}

			var ref map[int][]string
			for ki, kind := range sessionKinds {
				for mi, method := range methods {
					got := runOne(method, kind.opts)
					if ki == 0 && mi == 0 {
						ref = got
						continue
					}
					if len(got) != len(ref) {
						t.Errorf("%s/%s: %d query streams, reference has %d", kind.name, method, len(got), len(ref))
					}
					for qid, want := range ref {
						if fmt.Sprint(got[qid]) != fmt.Sprint(want) {
							t.Errorf("%s/%s: query %d stream diverges under churn\nrepro: go test -run 'TestDifferentialSessionChurn/seed=%d' .",
								kind.name, method, qid, seed)
						}
					}
				}
			}

			// Fresh per-query oracle: each subscription observed exactly
			// the frames [at, until).
			for _, iv := range ivs {
				oracle, err := tvq.Open(nil, tvq.WithQueries(iv.q))
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, f := range suffixFrames(tr, iv.at) {
					if f.FID+iv.at >= iv.until {
						break
					}
					ms, err := oracle.ProcessFrame(f)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						want = append(want, shiftedKey(f.FID, m, iv.at))
					}
				}
				oracle.Close()
				if fmt.Sprint(ref[iv.q.ID]) != fmt.Sprint(want) {
					t.Errorf("query %d: shared-plan stream diverges from fresh per-query run (%d vs %d matches)\nrepro: go test -run 'TestDifferentialSessionChurn/seed=%d' .",
						iv.q.ID, len(ref[iv.q.ID]), len(want), seed)
				}
				matched += len(want)
			}
			for _, q := range base {
				matched += len(ref[q.ID])
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}
