package tvq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tvq"
	"tvq/internal/engine"
)

// sessionTrace builds a small deterministic feed: one car throughout,
// two people during frames 10-60, a third during 30-80.
func sessionTrace(t *testing.T) *tvq.Trace {
	t.Helper()
	reg := tvq.StandardRegistry()
	car, person := reg.Class("car"), reg.Class("person")
	var tuples []tvq.Tuple
	for f := int64(0); f < 100; f++ {
		tuples = append(tuples, tvq.Tuple{FID: f, ID: 1, Class: car})
		if f >= 10 && f < 60 {
			tuples = append(tuples, tvq.Tuple{FID: f, ID: 2, Class: person})
			tuples = append(tuples, tvq.Tuple{FID: f, ID: 3, Class: person})
		}
		if f >= 30 && f < 80 {
			tuples = append(tuples, tvq.Tuple{FID: f, ID: 4, Class: person})
		}
	}
	tr, err := tvq.NewTraceFromTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOpenSubscribeCancel(t *testing.T) {
	tr := sessionTrace(t)
	s, err := tvq.Open(context.Background()) // no queries yet: serving shape
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var delivered []tvq.Delivery
	sub, err := s.Subscribe(tvq.MustQuery(0, "car >= 1 AND person >= 2", 10, 5),
		tvq.WithSink(tvq.SinkFunc(func(d tvq.Delivery) error {
			delivered = append(delivered, d)
			return nil
		})))
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID() == 0 {
		t.Fatal("zero query id not assigned")
	}

	cancelAt := int64(40)
	var fromResults int
	for _, f := range tr.Frames() {
		if f.FID == cancelAt {
			if err := sub.Cancel(); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := s.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		fromResults += len(ms)
	}
	if len(delivered) == 0 {
		t.Fatal("sink received no deliveries")
	}
	for _, d := range delivered {
		if d.FID >= cancelAt {
			t.Errorf("delivery for frame %d after Cancel at %d", d.FID, cancelAt)
		}
		if d.Match.QueryID != sub.ID() {
			t.Errorf("delivery for query %d, want %d", d.Match.QueryID, sub.ID())
		}
	}
	if fromResults != len(delivered) {
		t.Errorf("results carried %d matches, sink %d; they must agree", fromResults, len(delivered))
	}
	if got := len(s.Queries()); got != 0 {
		// Cancellation is applied before the next processed frame.
		t.Errorf("session still holds %d queries after cancel", got)
	}
	if err := sub.Cancel(); err != nil {
		t.Errorf("second Cancel: %v", err)
	}
}

func TestSessionTypedErrors(t *testing.T) {
	q := tvq.MustQuery(1, "car >= 1", 10, 5)
	s, err := tvq.Open(nil, tvq.WithQueries(q))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(tvq.MustQuery(1, "person >= 1", 10, 5)); !errors.Is(err, tvq.ErrDuplicateQuery) {
		t.Errorf("duplicate subscribe: err = %v, want ErrDuplicateQuery", err)
	}
	s.Close()
	if _, err := s.Subscribe(tvq.MustQuery(2, "person >= 1", 10, 5)); !errors.Is(err, tvq.ErrSessionClosed) {
		t.Errorf("subscribe after close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Process(nil); !errors.Is(err, tvq.ErrSessionClosed) {
		t.Errorf("process after close: err = %v, want ErrSessionClosed", err)
	}

	pruned, err := tvq.Open(nil, tvq.WithQueries(q), tvq.WithPruning(true))
	if err != nil {
		t.Fatal(err)
	}
	defer pruned.Close()
	if _, err := pruned.Subscribe(tvq.MustQuery(2, "person >= 1", 10, 5)); !errors.Is(err, tvq.ErrPruningIncompatible) {
		t.Errorf("pruned subscribe: err = %v, want ErrPruningIncompatible", err)
	}

	// A single-engine session reports a typed error, not a panic, for
	// multi-feed input.
	single, err := tvq.Open(nil, tvq.WithQueries(q))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.Process([]tvq.FeedFrame{{Feed: 3}}); err == nil {
		t.Error("single-engine session accepted feed 3")
	}

	// Run goes on from the session's cursor, so a trace that ends before
	// the cursor is the wrong trace.
	tr := sessionTrace(t)
	if _, err := single.Run(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := single.ProcessFrame(tvq.Frame{FID: tvq.FrameID(tr.Len())}); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Run(tr); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("Run of a trace that ends before the cursor: err = %v, want ErrSnapshotMismatch", err)
	}

	// Pooled sessions reject dynamic queries under pruning identically.
	pooledPruned, err := tvq.Open(nil, tvq.WithQueries(q), tvq.WithPruning(true),
		tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer pooledPruned.Close()
	if _, err := pooledPruned.Subscribe(tvq.MustQuery(2, "person >= 1", 10, 5)); !errors.Is(err, tvq.ErrPruningIncompatible) {
		t.Errorf("pooled pruned subscribe: err = %v, want ErrPruningIncompatible", err)
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := tvq.ParseQuery(1, "car >= 2 AND person ??", 30, 15)
	var pe *tvq.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *tvq.ParseError", err, err)
	}
	if pe.Offset != 20 {
		t.Errorf("Offset = %d, want 20 (the '?')", pe.Offset)
	}
	if pe.Input != "car >= 2 AND person ??" {
		t.Errorf("Input = %q", pe.Input)
	}
	if !strings.Contains(err.Error(), "offset 20") {
		t.Errorf("message lost the position: %q", err.Error())
	}
}

func TestChanSinkDelivery(t *testing.T) {
	tr := sessionTrace(t)
	s, err := tvq.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cs := tvq.NewChanSink(4)
	sub, err := s.Subscribe(tvq.MustQuery(0, "car >= 1 AND person >= 2", 10, 5), tvq.WithSink(cs))
	if err != nil {
		t.Fatal(err)
	}

	// Consume concurrently: with a 4-slot buffer the session
	// backpressures on the consumer, and the channel closes after
	// Cancel takes effect, ending the range loop.
	got := make(chan int)
	go func() {
		n := 0
		for range cs.C() {
			n++
		}
		got <- n
	}()
	var want int
	for _, f := range tr.Frames() {
		if f.FID == 50 {
			sub.Cancel()
		}
		ms, err := s.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want += len(ms)
	}
	select {
	case n := <-got:
		if n != want {
			t.Errorf("channel carried %d deliveries, results %d", n, want)
		}
		if n == 0 {
			t.Error("no deliveries; test is vacuous")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel never closed after Cancel")
	}
}

// TestAttachAfterEndClosesSink: a ChanSink attached to a subscription
// that can no longer deliver — cancelled, or on a closed session — must
// have its channel closed, or a consumer ranging over it waits forever.
func TestAttachAfterEndClosesSink(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*tvq.Session, *tvq.Subscription)
	}{
		{"cancel", func(_ *tvq.Session, sub *tvq.Subscription) { sub.Cancel() }},
		{"session close", func(s *tvq.Session, _ *tvq.Subscription) { s.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tvq.Open(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sub, err := s.Subscribe(tvq.MustQuery(0, "car >= 1", 10, 5))
			if err != nil {
				t.Fatal(err)
			}
			tc.end(s, sub)

			cs := tvq.NewChanSink(1)
			sub.Attach(cs)
			ended := make(chan struct{})
			go func() {
				for range cs.C() {
				}
				close(ended)
			}()
			select {
			case <-ended:
			case <-time.After(2 * time.Second):
				t.Fatal("range over the attached sink never ended")
			}
		})
	}
}

func TestJSONLSink(t *testing.T) {
	tr := sessionTrace(t)
	var buf bytes.Buffer
	s, err := tvq.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Subscribe(tvq.MustQuery(42, "person >= 2", 8, 4),
		tvq.WithSink(tvq.NewJSONLSink(&buf))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("JSONL sink wrote nothing")
	}
	for _, line := range lines {
		var rec struct {
			Feed    int64    `json:"feed"`
			FID     int64    `json:"fid"`
			Query   int      `json:"query"`
			Objects []uint32 `json:"objects"`
			Frames  []int64  `json:"frames"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Query != 42 || len(rec.Objects) < 2 || len(rec.Frames) < 4 {
			t.Fatalf("implausible record: %+v", rec)
		}
	}
}

func TestSessionStreamIter(t *testing.T) {
	tr := sessionTrace(t)
	s, err := tvq.Open(nil, tvq.WithQueries(tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	seen := 0
	for f, ms := range s.Stream(context.Background(), tvq.TraceFrames(tr)) {
		if len(ms) == 0 {
			t.Fatalf("frame %d yielded with no matches", f.FID)
		}
		seen++
		if seen == 3 {
			break // early exit must be clean
		}
	}
	if seen != 3 {
		t.Fatalf("yielded %d matching frames before break, want 3", seen)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}

	// A cancelled context ends the iteration immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range s.Stream(ctx, tvq.TraceFrames(tr)) {
		t.Fatal("cancelled context still yielded")
	}
}

func TestSessionPooledAgreesWithSingle(t *testing.T) {
	tr := sessionTrace(t)
	queries := []tvq.Query{
		tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5),
		tvq.MustQuery(2, "person >= 1", 16, 8),
	}
	collect := func(opts ...tvq.Option) []string {
		t.Helper()
		s, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQueries(queries...)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		results, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range results {
			for _, m := range r.Matches {
				out = append(out, fmt.Sprintf("%d:%s", r.FID, tvq.FormatMatch(m)))
			}
		}
		return out
	}
	want := collect()
	if len(want) == 0 {
		t.Fatal("no matches; test is vacuous")
	}
	got := collect(tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("pooled session diverges from single-engine session\n got %d matches\nwant %d", len(got), len(want))
	}
}

func TestSessionCheckpointAndResume(t *testing.T) {
	tr := sessionTrace(t)
	path := filepath.Join(t.TempDir(), "run.tvqsnap")
	q := tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5)

	// Reference: uninterrupted run with a mid-trace subscription.
	subQ := tvq.MustQuery(9, "person >= 2", 8, 4)
	runWith := func(s *tvq.Session, frames []tvq.Frame, subAt int64) []string {
		t.Helper()
		var out []string
		for _, f := range frames {
			if f.FID == subAt {
				if _, err := s.Subscribe(subQ); err != nil {
					t.Fatal(err)
				}
			}
			ms, err := s.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				out = append(out, fmt.Sprintf("%d:%s", f.FID, tvq.FormatMatch(m)))
			}
		}
		return out
	}
	ref, err := tvq.Open(nil, tvq.WithQueries(q))
	if err != nil {
		t.Fatal(err)
	}
	want := runWith(ref, tr.Frames(), 20)
	ref.Close()

	// Interrupted run: checkpoint every 10 frames, "crash" at the cut.
	s, err := tvq.Open(nil, tvq.WithQueries(q), tvq.WithCheckpoint(path, tvq.EveryFrames(10)))
	if err != nil {
		t.Fatal(err)
	}
	cut := 50
	got := runWith(s, tr.Frames()[:cut], 20)
	if err := s.Close(); err != nil { // final checkpoint lands at the cut
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := tvq.SnapshotKind(f); err != nil || kind != "session" {
		t.Fatalf("SnapshotKind = %q, %v; want session", kind, err)
	}
	f.Close()

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var restoredSubs []tvq.Query
	resumed, err := tvq.Resume(nil, f, tvq.WithSubscriptionSinks(func(q tvq.Query) tvq.Sink {
		restoredSubs = append(restoredSubs, q)
		return nil
	}))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if n := resumed.NextFID(0); n != int64(cut) {
		t.Fatalf("resumed at frame %d, want %d", n, cut)
	}
	if len(restoredSubs) != 1 || restoredSubs[0].ID != 9 {
		t.Fatalf("restored subscriptions = %+v, want query 9", restoredSubs)
	}
	if subs := resumed.Subscriptions(); len(subs) != 1 || subs[0].ID() != 9 {
		t.Fatalf("Subscriptions() = %v", subs)
	}
	got = append(got, runWith(resumed, tr.Frames()[cut:], -1)...)

	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("resumed session diverges from uninterrupted run (%d vs %d matches)", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("no matches; test is vacuous")
	}
}

func TestSessionContextCancelCloses(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := tvq.Open(ctx, tvq.WithQueries(tvq.MustQuery(1, "car >= 1", 10, 5)))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		if _, err := s.Process(nil); errors.Is(err, tvq.ErrSessionClosed) {
			return
		}
		select {
		case <-deadline:
			t.Fatal("session did not close after context cancellation")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestResumeCrossChecks(t *testing.T) {
	var buf bytes.Buffer
	s, err := tvq.Open(nil, tvq.WithQueries(tvq.MustQuery(1, "car >= 1", 10, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data := buf.Bytes()

	if _, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithWorkers(4)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("worker mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithMethod(tvq.MethodNaive)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("method mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithPruning(true)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("pruning mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithWindowMode(tvq.Tumbling)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("window mode mismatch: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithShardMode(tvq.ShardByGroup)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("shard mode on engine snapshot: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithQueries(tvq.MustQuery(5, "bus >= 1", 10, 5))); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("WithQueries on Resume: err = %v, want ErrSnapshotMismatch", err)
	}
	ok, err := tvq.Resume(nil, bytes.NewReader(data), tvq.WithMethod(tvq.MethodSSG))
	if err != nil {
		t.Fatalf("matching method rejected: %v", err)
	}
	ok.Close()

	// A subscription record that names no query of the embedded
	// processor.
	proc, err := engine.Open([]tvq.Query{tvq.MustQuery(1, "car >= 1", 10, 5)}, engine.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	orphan := sessionFile(t, "session", []int{9}, proc, nil)
	if _, err := tvq.Resume(nil, bytes.NewReader(orphan)); !errors.Is(err, tvq.ErrSnapshotMismatch) {
		t.Errorf("subscription without a query: err = %v, want ErrSnapshotMismatch", err)
	}
}

// TestDisorderedProcessFrameAllocs: on a warm session, an in-order
// ProcessFrame of a frame no query matches costs a disordered session no
// more allocations than a strict one. The reorder stage releases a frame
// at its cursor without copying it when nothing is held back, and its
// per-batch buffers are kept on the session.
func TestDisorderedProcessFrameAllocs(t *testing.T) {
	q := tvq.MustQuery(1, "car >= 3", 10, 5)
	f := sessionTrace(t).Frame(40)
	perFrame := func(opts ...tvq.Option) float64 {
		s, err := tvq.Open(nil, append(opts, tvq.WithQueries(q))...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var fid tvq.FrameID
		step := func() {
			f.FID, fid = fid, fid+1
			if ms, err := s.ProcessFrame(f); err != nil || len(ms) != 0 {
				t.Fatalf("ProcessFrame = %v, %v; want no matches", ms, err)
			}
		}
		for i := 0; i < 50; i++ {
			step()
		}
		return testing.AllocsPerRun(200, step)
	}
	strict, disordered := perFrame(), perFrame(tvq.WithDisorderBound(4))
	if disordered > strict {
		t.Errorf("disordered ProcessFrame allocates %.2f per frame, strict %.2f", disordered, strict)
	}
}

// TestSessionProcessFrameAllocsLikeEngine: on a warm single-engine
// session, ProcessFrame of a frame no query matches allocates no more
// than Engine.ProcessFrame of the same frame does. The session adds no
// batch of its own per call: its one-frame batch is kept on it.
func TestSessionProcessFrameAllocsLikeEngine(t *testing.T) {
	q := tvq.MustQuery(1, "car >= 3", 10, 5)
	s, err := tvq.Open(nil, tvq.WithQueries(q))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng, err := engine.New([]tvq.Query{q}, engine.Options{Registry: tvq.StandardRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	// The trace's steady stretch repeats one object set, so a warm
	// generator creates nothing and both sides see the same work.
	f := sessionTrace(t).Frame(40)
	var sessFID, engFID tvq.FrameID
	viaSession := func() {
		f.FID, sessFID = sessFID, sessFID+1
		if ms, err := s.ProcessFrame(f); err != nil || len(ms) != 0 {
			t.Fatalf("ProcessFrame = %v, %v; want no matches", ms, err)
		}
	}
	viaEngine := func() {
		f.FID, engFID = engFID, engFID+1
		if ms := eng.ProcessFrame(f); len(ms) != 0 {
			t.Fatalf("Engine.ProcessFrame matched: %v", ms)
		}
	}
	for i := 0; i < 50; i++ {
		viaSession()
		viaEngine()
	}
	sess, alone := testing.AllocsPerRun(200, viaSession), testing.AllocsPerRun(200, viaEngine)
	if sess > alone {
		t.Errorf("Session.ProcessFrame allocates %.2f per frame, Engine.ProcessFrame %.2f", sess, alone)
	}
}
