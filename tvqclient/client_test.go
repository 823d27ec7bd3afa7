package tvqclient_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tvq"
	"tvq/internal/server"
	"tvq/tvqclient"
)

// testDaemon runs the serving stack on an httptest server.
func testDaemon(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { srv.Shutdown(); ts.Close() })
	return srv, ts.URL
}

func testTrace(t *testing.T) *tvq.Trace {
	t.Helper()
	reg := tvq.StandardRegistry()
	car, person := reg.Class("car"), reg.Class("person")
	var tuples []tvq.Tuple
	for f := int64(0); f < 100; f++ {
		tuples = append(tuples, tvq.Tuple{FID: f, ID: 1, Class: car})
		if f >= 10 && f < 80 {
			tuples = append(tuples, tvq.Tuple{FID: f, ID: 2, Class: person})
			tuples = append(tuples, tvq.Tuple{FID: f, ID: 3, Class: person})
		}
	}
	tr, err := tvq.NewTraceFromTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

const testQuery = "car >= 1 AND person >= 2"

// waitForStreams polls the daemon's metrics until n match streams are
// attached.
func waitForStreams(t *testing.T, base string, n int) {
	t.Helper()
	want := fmt.Sprintf("tvq_streams_active %d", n)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf [1 << 16]byte
		m, _ := resp.Body.Read(buf[:])
		resp.Body.Close()
		if strings.Contains(string(buf[:m]), want) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("streams never attached (%s)", want)
}

// TestClientEndToEnd drives the full client surface against an
// in-process daemon: create a session with a query, attach a stream,
// ingest a trace over the binary wire format, and require the streamed
// deliveries to match a direct in-process session run of the same
// trace.
func TestClientEndToEnd(t *testing.T) {
	ctx := context.Background()
	_, base := testDaemon(t)
	tr := testTrace(t)

	c := tvqclient.New(base, tvqclient.WithStreamBuffer(8192), tvqclient.WithBatch(17))
	created, err := c.CreateSession(ctx, "", tvqclient.SessionParams{
		Queries: []tvqclient.QueryParams{{ID: 1, Query: testQuery, Window: 10, Duration: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if created.Resumed || len(created.Queries) != 1 {
		t.Fatalf("create: %+v", created)
	}

	// Attach both stream formats before ingesting.
	streamed := make(chan []tvq.Delivery, 1)
	sseStreamed := make(chan []tvq.Delivery, 1)
	ready := make(chan struct{}, 2)
	collect := func(seq func(func(tvq.Delivery, error) bool), out chan []tvq.Delivery) {
		var ds []tvq.Delivery
		ready <- struct{}{}
		for d, err := range seq {
			if err != nil {
				t.Errorf("stream error: %v", err)
				break
			}
			ds = append(ds, d)
		}
		out <- ds
	}
	go collect(c.Stream(ctx, 1), streamed)
	go collect(c.StreamSSE(ctx, 1), sseStreamed)
	<-ready
	<-ready
	// The goroutines signal before their HTTP streams attach; wait until
	// the daemon reports both taps live, or matches for the first frames
	// would legitimately not be replayed to them.
	waitForStreams(t, base, 2)

	res, err := c.IngestTrace(ctx, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != tr.Len() || res.NextFID != int64(tr.Len()) || res.Skipped != 0 {
		t.Fatalf("ingest result: %+v", res)
	}
	if res.Matches == 0 {
		t.Fatal("no matches; test is vacuous")
	}

	// Reference run: the same trace through a local session.
	var want []tvq.Delivery
	s, err := tvq.Open(ctx, tvq.WithRegistry(tvq.StandardRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Subscribe(tvq.MustQuery(1, testQuery, 10, 5),
		tvq.WithSink(tvq.SinkFunc(func(d tvq.Delivery) error {
			want = append(want, d)
			return nil
		})))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Frames() {
		if _, err := s.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if len(want) != res.Matches {
		t.Fatalf("reference run has %d matches, ingest reported %d", len(want), res.Matches)
	}

	// Cancel the subscription: both streams end and deliver their logs.
	if err := c.Unsubscribe(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan []tvq.Delivery{streamed, sseStreamed} {
		select {
		case got := <-ch:
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("streamed deliveries diverge from the in-process run\ngot  %d deliveries\nwant %d",
					len(got), len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stream did not end after unsubscribe")
		}
	}

	// Session listing reflects the run.
	infos, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].NextFID != int64(tr.Len()) {
		t.Fatalf("sessions: %+v", infos)
	}
}

// TestClientCursorRetry pins the 409 convergence loop: a producer that
// re-sends an overlapping batch (at-least-once delivery) has the
// daemon-side prefix skipped locally and the remainder ingested, with
// the skip reported.
func TestClientCursorRetry(t *testing.T) {
	ctx := context.Background()
	_, base := testDaemon(t)
	tr := testTrace(t)
	frames := tr.Frames()

	c := tvqclient.New(base)
	if _, err := c.CreateSession(ctx, "", tvqclient.SessionParams{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, 0, frames[:30]); err != nil {
		t.Fatal(err)
	}
	// Overlapping resend: frames 0..60, of which 0..30 are already in.
	res, err := c.Ingest(ctx, 0, frames[:60])
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 30 || res.Accepted != 30 || res.NextFID != 60 {
		t.Fatalf("overlap ingest: %+v", res)
	}

	// A genuine gap cannot be healed and must fail.
	if _, err := c.Ingest(ctx, 0, frames[80:]); err == nil {
		t.Fatal("gapped ingest succeeded")
	}

	// With retries disabled, the conflict surfaces as an APIError.
	c0 := tvqclient.New(base, tvqclient.WithCursorRetries(0))
	_, err = c0.Ingest(ctx, 0, frames[:10])
	var apiErr *tvqclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("retry-exhausted error = %v, want 409 APIError", err)
	}
}

// TestClientJSONLCodec pins the WithCodec escape hatch: the same trace
// ingested with the debuggable JSONL codec produces identical
// accounting.
func TestClientJSONLCodec(t *testing.T) {
	ctx := context.Background()
	_, base := testDaemon(t)
	tr := testTrace(t)

	results := make(map[string]tvqclient.IngestResult)
	for name, codec := range map[string]tvq.Codec{"binary": tvq.BinaryCodec, "jsonl": tvq.JSONLCodec} {
		c := tvqclient.New(base, tvqclient.WithCodec(codec), tvqclient.WithSession(name))
		if _, err := c.CreateSession(ctx, name, tvqclient.SessionParams{
			Queries: []tvqclient.QueryParams{{ID: 1, Query: testQuery, Window: 10, Duration: 5}},
		}); err != nil {
			t.Fatal(err)
		}
		res, err := c.IngestTrace(ctx, 0, tr)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	if results["binary"] != results["jsonl"] {
		t.Fatalf("codec accounting diverges: %+v", results)
	}
}

// TestClientErrors pins the typed error surface.
func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	_, base := testDaemon(t)
	c := tvqclient.New(base)

	var apiErr *tvqclient.APIError
	_, err := c.CreateSession(ctx, "bad", tvqclient.SessionParams{Method: "nope"})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method error = %v", err)
	}
	if err := c.DeleteSession(ctx, "missing"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("delete missing = %v", err)
	}
	if _, err := c.Subscribe(ctx, tvqclient.QueryParams{Query: "not a query", Window: 10, Duration: 5}); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestClientCursorStall pins the 409 convergence-stall detection
// against stub servers the real daemon never imitates: a cursor that
// advances between corrections is progress (another producer racing us)
// and converges with exact Skipped accounting, while a cursor that
// refuses to move past a prior correction fails fast with
// ErrCursorStalled instead of burning the retry budget on a resend the
// server already rejected.
func TestClientCursorStall(t *testing.T) {
	ctx := context.Background()
	frames := testTrace(t).Frames()[:10]

	// Converging stub: two corrections with an advancing cursor, then
	// acceptance of the remaining frames.
	calls := 0
	converge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Content-Type", "application/json")
		switch calls {
		case 1:
			w.WriteHeader(http.StatusConflict)
			fmt.Fprint(w, `{"error":"batch does not continue cursor","next_fid":3}`)
		case 2:
			w.WriteHeader(http.StatusConflict)
			fmt.Fprint(w, `{"error":"batch does not continue cursor","next_fid":6}`)
		default:
			fmt.Fprint(w, `{"accepted":4,"matches":0,"next_fid":10}`)
		}
	}))
	defer converge.Close()
	res, err := tvqclient.New(converge.URL).Ingest(ctx, 0, frames)
	if err != nil {
		t.Fatalf("converging ingest: %v", err)
	}
	if res.Skipped != 6 || res.Accepted != 4 || res.NextFID != 10 {
		t.Fatalf("converging ingest accounting: %+v", res)
	}

	// Stalling stub: every batch draws the same next_fid, even once the
	// batch starts exactly there.
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, `{"error":"batch does not continue cursor","next_fid":5}`)
	}))
	defer stall.Close()
	res, err = tvqclient.New(stall.URL).Ingest(ctx, 0, frames)
	if !errors.Is(err, tvqclient.ErrCursorStalled) {
		t.Fatalf("stalled ingest error = %v, want ErrCursorStalled", err)
	}
	// The first correction legitimately pruned frames 0..4; the stall is
	// detected on the second, before any frame is double-counted.
	if res.Skipped != 5 || res.Accepted != 0 {
		t.Fatalf("stalled ingest accounting: %+v", res)
	}

	// A regressing cursor (moving backwards) is a stall too, not an
	// excuse to re-skip frames the daemon claims not to have.
	first := true
	regress := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		if first {
			first = false
			fmt.Fprint(w, `{"error":"batch does not continue cursor","next_fid":5}`)
			return
		}
		fmt.Fprint(w, `{"error":"batch does not continue cursor","next_fid":2}`)
	}))
	defer regress.Close()
	if _, err := tvqclient.New(regress.URL).Ingest(ctx, 0, frames); !errors.Is(err, tvqclient.ErrCursorStalled) {
		t.Fatalf("regressing ingest error = %v, want ErrCursorStalled", err)
	}
}

// TestStreamCancelMidLine pins the requested end of a stream: a
// consumer that cancels its context while the daemon is halfway through
// a line must see the sequence end, not a decode error for the fragment
// the torn-down connection left in the scanner (the serving example
// failed one run in six on exactly that).
func TestStreamCancelMidLine(t *testing.T) {
	const line = `{"feed":0,"fid":7,"query":1,"objects":[1,2],"frames":[5,6,7]}`
	sent := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, "%s\n%s", line, line[:23]) // one whole line, then a fragment
		w.(http.Flusher).Flush()
		close(sent)
		<-r.Context().Done()
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []tvq.Delivery
	for d, err := range tvqclient.New(ts.URL).Stream(ctx, 1) {
		if err != nil {
			t.Fatalf("stream yielded %v after %d deliveries; a cancelled stream must just end", err, len(got))
		}
		got = append(got, d)
		<-sent
		cancel()
	}
	if len(got) != 1 || got[0].FID != 7 {
		t.Fatalf("deliveries before the cancel: %+v, want the one whole line", got)
	}
}
