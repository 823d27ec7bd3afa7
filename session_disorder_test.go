package tvq_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tvq"
	"tvq/internal/engine"
	"tvq/internal/reorder"
	"tvq/internal/snapshot"
)

// Disorder differential harness: a session opened with
// WithDisorderBound(k) and fed a bounded shuffle of a trace must be
// observationally identical — match streams, sink bytes, cursors — to
// an in-order run of the same trace, across every maintenance strategy
// and session shape, with zero frames falling to the late policy. This
// is the end-to-end proof of the reorder stage's exactness contract;
// the unit-level invariants live in internal/reorder.

// disorderMethods×sessionKinds would be 9 runs per seed; each seed
// instead rotates through the methods while covering every session
// kind, so the full matrix is exercised across the seed set at a third
// of the cost.
var disorderMethods = []tvq.Method{tvq.MethodNaive, tvq.MethodMFS, tvq.MethodSSG}

// runDisorderSession feeds the arrivals (any bounded shuffle, or the
// in-order frames) through one session and returns the per-query match
// streams and the subscription sink's raw JSONL bytes.
func runDisorderSession(t *testing.T, arrivals []tvq.Frame, base []tvq.Query, subQ tvq.Query,
	method tvq.Method, rng *rand.Rand, opts ...tvq.Option) (map[int][]string, []byte) {
	t.Helper()
	s, err := tvq.Open(nil, append([]tvq.Option{
		tvq.WithQueries(base...),
		tvq.WithMethod(method),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var sinkBuf bytes.Buffer
	if _, err := s.Subscribe(subQ, tvq.WithSink(tvq.NewJSONLSink(&sinkBuf))); err != nil {
		t.Fatal(err)
	}

	streams := make(map[int][]string)
	for i := 0; i < len(arrivals); {
		n := min(1+rng.Intn(7), len(arrivals)-i)
		batch := make([]tvq.FeedFrame, 0, n)
		for _, f := range arrivals[i : i+n] {
			batch = append(batch, tvq.FeedFrame{Frame: f})
		}
		i += n
		results, err := s.Process(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			for _, m := range r.Matches {
				streams[m.QueryID] = append(streams[m.QueryID], shiftedKey(r.FID, m, 0))
			}
		}
	}

	if s.Disordered() {
		if late := s.LateFrames(); late != 0 {
			t.Fatalf("bounded shuffle tripped the late policy %d times; the bound contract is broken", late)
		}
		if d := s.ReorderDepth(); d != 0 {
			t.Fatalf("%d frames still buffered after the full trace", d)
		}
	}
	if next := s.NextFID(0); next != int64(len(arrivals)) {
		t.Fatalf("cursor at %d after %d frames", next, len(arrivals))
	}
	return streams, sinkBuf.Bytes()
}

func TestDisorderDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	matched := 0
	for i := 0; i < seeds; i++ {
		seed := int64(11000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomSessionTrace(t, rng)
			k := 1 + rng.Intn(6)
			base := []tvq.Query{randomCondQuery(rng, 1, 2+rng.Intn(10))}
			subQ := randomCondQuery(rng, 50, 12+rng.Intn(6))
			method := disorderMethods[i%len(disorderMethods)]
			arrivals := tvq.BoundedShuffle(tr.Frames(), k, seed)

			for _, kind := range sessionKinds {
				// Both runs draw batch sizes from identical rng states, so
				// any divergence is the reorder stage's fault, not the
				// batching's.
				wantStreams, wantSink := runDisorderSession(t, tr.Frames(), base, subQ, method,
					rand.New(rand.NewSource(seed+1)), kind.opts...)
				gotStreams, gotSink := runDisorderSession(t, arrivals, base, subQ, method,
					rand.New(rand.NewSource(seed+1)), append([]tvq.Option{tvq.WithDisorderBound(k)}, kind.opts...)...)

				if !bytes.Equal(gotSink, wantSink) {
					t.Errorf("%s/%v: disordered run's sink bytes diverge from in-order run (%d vs %d bytes)\nrepro: go test -run 'TestDisorderDifferential/seed=%d' .",
						kind.name, method, len(gotSink), len(wantSink), seed)
				}
				if len(gotStreams) != len(wantStreams) {
					t.Errorf("%s/%v: %d query streams vs %d", kind.name, method, len(gotStreams), len(wantStreams))
				}
				for qid, want := range wantStreams {
					if fmt.Sprint(gotStreams[qid]) != fmt.Sprint(want) {
						t.Errorf("%s/%v: query %d stream diverges under bounded disorder\nrepro: go test -run 'TestDisorderDifferential/seed=%d' .",
							kind.name, method, qid, seed)
					}
					matched += len(want)
				}
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}

// TestDisorderMultiFeed shuffles each feed of a ShardByFeed pool
// independently: per-feed match streams must equal the in-order
// multi-feed run's, and each feed's watermark must land at its end.
func TestDisorderMultiFeed(t *testing.T) {
	matched := 0
	for i := 0; i < 8; i++ {
		seed := int64(12000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			traces := []*tvq.Trace{randomSessionTrace(t, rng), randomSessionTrace(t, rng)}
			k := 1 + rng.Intn(5)
			base := []tvq.Query{randomCondQuery(rng, 1, 2+rng.Intn(10))}

			run := func(shuffled bool) map[string][]string {
				t.Helper()
				opts := []tvq.Option{
					tvq.WithQueries(base...),
					tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByFeed),
				}
				if shuffled {
					opts = append(opts, tvq.WithDisorderBound(k))
				}
				s, err := tvq.Open(nil, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				// Interleave the two feeds round-robin; under shuffle each
				// feed's sub-stream is independently displaced within k.
				feeds := make([][]tvq.Frame, len(traces))
				for fi, tr := range traces {
					feeds[fi] = tr.Frames()
					if shuffled {
						feeds[fi] = tvq.BoundedShuffle(feeds[fi], k, seed+int64(fi))
					}
				}
				streams := make(map[string][]string)
				for pos := 0; ; pos++ {
					var batch []tvq.FeedFrame
					for fi := range feeds {
						if pos < len(feeds[fi]) {
							batch = append(batch, tvq.FeedFrame{Feed: tvq.FeedID(fi), Frame: feeds[fi][pos]})
						}
					}
					if len(batch) == 0 {
						break
					}
					results, err := s.Process(batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range results {
						for _, m := range r.Matches {
							key := fmt.Sprintf("feed%d", r.Feed)
							streams[key] = append(streams[key], shiftedKey(r.FID, m, 0))
						}
					}
				}
				for fi, tr := range traces {
					if wm := s.Watermark(tvq.FeedID(fi)); wm != int64(tr.Len())-1 {
						t.Fatalf("feed %d watermark %d after %d frames", fi, wm, tr.Len())
					}
				}
				if shuffled && s.LateFrames() != 0 {
					t.Fatalf("bounded shuffle tripped the late policy")
				}
				return streams
			}

			want := run(false)
			got := run(true)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("per-feed streams diverge under independent feed shuffles\nrepro: go test -run 'TestDisorderMultiFeed/seed=%d' .", seed)
			}
			for _, st := range want {
				matched += len(st)
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
}

// TestDisorderSnapshotResume checkpoints a disordered session at a cut
// where the reorder buffer is provably non-empty — mid-reassembly —
// and requires the snapshot to round-trip and the resumed session to
// finish the shuffled trace with exactly the uninterrupted run's streams
// and counters, for all three strategies. Every third seed shuffles
// frames three positions past the bound, so the snapshot records late
// and gap-filled frames; every third records the Error policy.
func TestDisorderSnapshotResume(t *testing.T) {
	matched, lateAtCut := 0, 0
	for i := 0; i < 9; i++ {
		seed := int64(13000 + i)
		method := disorderMethods[i%len(disorderMethods)]
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomSessionTrace(t, rng)
			k := 2 + rng.Intn(4)
			base := []tvq.Query{randomCondQuery(rng, 1, 2+rng.Intn(10))}
			displace, policy := k, tvq.LateDrop
			switch i % 3 {
			case 1:
				displace = k + 3
			case 2:
				policy = tvq.LateError
			}
			arrivals := tvq.BoundedShuffle(tr.Frames(), displace, seed)

			open := func() *tvq.Session {
				t.Helper()
				s, err := tvq.Open(nil, tvq.WithQueries(base...), tvq.WithMethod(method),
					tvq.WithDisorderBound(k), tvq.WithLatePolicy(policy))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			feed := func(s *tvq.Session, frames []tvq.Frame, streams map[int][]string) {
				t.Helper()
				for _, f := range frames {
					results, err := s.Process([]tvq.FeedFrame{{Frame: f}})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range results {
						for _, m := range r.Matches {
							streams[m.QueryID] = append(streams[m.QueryID], shiftedKey(r.FID, m, 0))
						}
					}
				}
			}

			// Uninterrupted reference.
			ref := make(map[int][]string)
			sRef := open()
			feed(sRef, arrivals, ref)
			refLate := sRef.LateFrames()
			sRef.Close()

			// Interrupted run: walk forward from mid-trace to the first cut
			// where frames sit in the buffer, so the snapshot provably
			// brackets buffered frames.
			got := make(map[int][]string)
			s := open()
			cut := len(arrivals) / 2
			feed(s, arrivals[:cut], got)
			for s.ReorderDepth() == 0 && cut < len(arrivals) {
				feed(s, arrivals[cut:cut+1], got)
				cut++
			}
			if s.ReorderDepth() == 0 {
				t.Fatalf("shuffle never left the buffer non-empty; snapshot cut is vacuous (k=%d)", k)
			}
			if len(arrivals)-cut < base[0].Window {
				t.Fatalf("the cut leaves %d frames, fewer than the window", len(arrivals)-cut)
			}
			if s.LateFrames() > 0 {
				lateAtCut++
			}
			var snap bytes.Buffer
			if err := s.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			s.Close()

			resumed := resumeRoundTrip(t, snap.Bytes())
			if !resumed.Disordered() || resumed.DisorderBound() != k {
				t.Fatalf("resumed session lost its disorder config: disordered=%v bound=%d",
					resumed.Disordered(), resumed.DisorderBound())
			}
			feed(resumed, arrivals[cut:], got)
			if late := resumed.LateFrames(); late != refLate {
				t.Errorf("resumed run counted %d late frames, uninterrupted run %d", late, refLate)
			}
			if d := resumed.ReorderDepth(); d != 0 {
				t.Errorf("%d frames still buffered after the full trace", d)
			}
			resumed.Close()

			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Errorf("%v: resumed disordered session diverges from uninterrupted run\nrepro: go test -run 'TestDisorderSnapshotResume/seed=%d' .", method, seed)
			}
			for _, st := range ref {
				matched += len(st)
			}
		})
	}
	if matched == 0 {
		t.Fatal("no generated workload produced any match; harness is vacuous")
	}
	if lateAtCut == 0 {
		t.Error("no snapshot recorded a late frame")
	}
}

// TestDisorderSnapshotCrossChecks pins the Resume negotiation: a v2
// snapshot's recorded bound/policy win silently when options are
// absent, disagree loudly when present, and a legacy strict snapshot
// accepts a disorder bound added at resume time.
func TestDisorderSnapshotCrossChecks(t *testing.T) {
	q := tvq.MustQuery(1, "car >= 1", 5, 3)

	snapOf := func(opts ...tvq.Option) []byte {
		t.Helper()
		s, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQuery(q)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	disordered := snapOf(tvq.WithDisorderBound(3), tvq.WithLatePolicy(tvq.LateError))
	strict := snapOf()

	if _, err := tvq.Resume(nil, bytes.NewReader(disordered), tvq.WithDisorderBound(4)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("bound mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := tvq.Resume(nil, bytes.NewReader(disordered), tvq.WithLatePolicy(tvq.LateDrop)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("policy mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	s, err := tvq.Resume(nil, bytes.NewReader(disordered))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Disordered() || s.DisorderBound() != 3 || s.LatePolicy() != tvq.LateError {
		t.Errorf("recorded disorder config not restored: bound=%d policy=%v", s.DisorderBound(), s.LatePolicy())
	}
	s.Close()

	s, err = tvq.Resume(nil, bytes.NewReader(strict), tvq.WithDisorderBound(2))
	if err != nil {
		t.Fatalf("legacy snapshot + WithDisorderBound: %v", err)
	}
	if !s.Disordered() || s.DisorderBound() != 2 {
		t.Errorf("disorder stage not attached on legacy resume")
	}
	s.Close()

	s, err = tvq.Resume(nil, bytes.NewReader(strict))
	if err != nil {
		t.Fatal(err)
	}
	if s.Disordered() {
		t.Errorf("strict snapshot resumed disordered")
	}
	s.Close()

	if _, err := tvq.Resume(nil, bytes.NewReader(strict), tvq.WithLatePolicy(tvq.LateDrop)); err == nil {
		t.Errorf("WithLatePolicy alone on a strict snapshot must be rejected")
	}

	// A reorder buffer that resumes at frame 5 beside an engine at frame
	// 0: the snapshot's halves disagree.
	proc, err := engine.Open([]tvq.Query{q}, engine.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	file := sessionFile(t, "session2", nil, proc, func(sw *snapshot.Writer) {
		sw.Uvarint(3) // bound
		sw.Uvarint(uint64(tvq.LateDrop))
		sw.Uvarint(1) // feeds
		sw.Varint(0)
		reorder.New(3, reorder.Drop, 5).Encode(sw)
	})
	if _, err := tvq.Resume(nil, bytes.NewReader(file)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("reorder cursor beside another engine cursor: err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestDisorderLatePolicy pins the two degrade modes on a deterministic
// displacement beyond the bound. Frame 1 is withheld past bound k=2:
// under LateDrop the run equals an in-order run with frame 1 emptied
// (and the straggler is counted, not applied); under LateError Process
// fails with the typed error naming the missing frame.
func TestDisorderLatePolicy(t *testing.T) {
	reg := tvq.StandardRegistry()
	car, person := reg.Class("car"), reg.Class("person")
	var tuples []tvq.Tuple
	for f := int64(0); f < 12; f++ {
		tuples = append(tuples, tvq.Tuple{FID: f, ID: 1, Class: car})
		tuples = append(tuples, tvq.Tuple{FID: f, ID: 2, Class: person})
	}
	tr, err := tvq.NewTraceFromTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	q := tvq.MustQuery(1, "car >= 1 AND person >= 1", 4, 2)
	frames := tr.Frames()
	// Arrival order: 0, 2, 3, 4, 5, …, 11, then the straggler 1. Frame 1
	// becomes an overdue gap the moment 4 arrives (maxSeen 4, bound 2),
	// long before its actual arrival at the end.
	arrivals := []tvq.Frame{frames[0]}
	arrivals = append(arrivals, frames[2:]...)
	arrivals = append(arrivals, frames[1])

	collect := func(s *tvq.Session, fs []tvq.Frame) ([]string, error) {
		var got []string
		for _, f := range fs {
			results, err := s.Process([]tvq.FeedFrame{{Frame: f}})
			for _, r := range results {
				for _, m := range r.Matches {
					got = append(got, shiftedKey(r.FID, m, 0))
				}
			}
			if err != nil {
				return got, err
			}
		}
		return got, nil
	}

	t.Run("drop", func(t *testing.T) {
		// Oracle: the in-order trace with frame 1 emptied — exactly what
		// the gap fill synthesizes.
		oracleFrames := append([]tvq.Frame(nil), frames...)
		oracleFrames[1] = tvq.Frame{FID: 1}
		oracle, err := tvq.Open(nil, tvq.WithQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		defer oracle.Close()
		want, err := collect(oracle, oracleFrames)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("oracle produced no matches; test is vacuous")
		}

		s, err := tvq.Open(nil, tvq.WithQuery(q), tvq.WithDisorderBound(2), tvq.WithLatePolicy(tvq.LateDrop))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, err := collect(s, arrivals)
		if err != nil {
			t.Fatalf("LateDrop must keep the stream flowing, got %v", err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("drop run diverges from gap-filled oracle:\ngot  %v\nwant %v", got, want)
		}
		// Exactly two policy hits: the synthesized fill for 1, and 1's own
		// late arrival.
		if late := s.LateFrames(); late != 2 {
			t.Errorf("LateFrames = %d, want 2", late)
		}
	})

	t.Run("error", func(t *testing.T) {
		s, err := tvq.Open(nil, tvq.WithQuery(q), tvq.WithDisorderBound(2), tvq.WithLatePolicy(tvq.LateError))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, err = collect(s, arrivals)
		if !errors.Is(err, tvq.ErrLateFrame) {
			t.Fatalf("err = %v, want ErrLateFrame", err)
		}
		var lfe *tvq.LateFrameError
		if !errors.As(err, &lfe) || !lfe.Missing || lfe.FID != 1 {
			t.Fatalf("err = %+v, want Missing frame 1", err)
		}
	})
}

// TestDisorderOptionValidation pins the option-surface contracts.
func TestDisorderOptionValidation(t *testing.T) {
	if _, err := tvq.Open(nil, tvq.WithDisorderBound(-1)); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := tvq.Open(nil, tvq.WithLatePolicy(tvq.LateDrop)); err == nil {
		t.Error("WithLatePolicy without WithDisorderBound accepted")
	}
	if _, err := tvq.ParseLatePolicy("nope"); err == nil {
		t.Error("ParseLatePolicy accepted garbage")
	}
	p, err := tvq.ParseLatePolicy("error")
	if err != nil || p != tvq.LateError {
		t.Errorf("ParseLatePolicy(error) = %v, %v", p, err)
	}

	s, err := tvq.Open(nil, tvq.WithDisorderBound(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Disordered() || s.DisorderBound() != 0 || s.LatePolicy() != tvq.LateDrop {
		t.Errorf("strict-mode stage misconfigured: %v %d %v", s.Disordered(), s.DisorderBound(), s.LatePolicy())
	}
	if wm := s.Watermark(0); wm != -1 {
		t.Errorf("fresh watermark = %d, want -1", wm)
	}
}

// TestBoundedShuffleDeterministic: same seed, same order — the
// property tvqgen -disorder relies on for reproducible artifacts.
func TestBoundedShuffleDeterministic(t *testing.T) {
	tr := randomSessionTrace(t, rand.New(rand.NewSource(42)))
	a := tvq.BoundedShuffle(tr.Frames(), 5, 7)
	b := tvq.BoundedShuffle(tr.Frames(), 5, 7)
	for i := range a {
		if a[i].FID != b[i].FID {
			t.Fatalf("shuffle not deterministic at %d: %d vs %d", i, a[i].FID, b[i].FID)
		}
	}
	c := tvq.BoundedShuffle(tr.Frames(), 5, 8)
	same := true
	for i := range a {
		if a[i].FID != c[i].FID {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical shuffles")
	}
}
