package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushCounter is a streaming ResponseWriter that counts flushes. Its
// first flush, the one after the headers, waits for release, so a test
// can queue a burst of deliveries in the stream's tap before the
// handler reads any of them.
type flushCounter struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int
	first   chan struct{} // closed at the first flush
	release chan struct{}
}

func newFlushCounter() *flushCounter {
	return &flushCounter{header: http.Header{}, first: make(chan struct{}), release: make(chan struct{})}
}

func (f *flushCounter) Header() http.Header { return f.header }

func (f *flushCounter) WriteHeader(int) {}

func (f *flushCounter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(p)
}

func (f *flushCounter) Flush() {
	f.mu.Lock()
	f.flushes++
	n := f.flushes
	f.mu.Unlock()
	if n == 1 {
		close(f.first)
		<-f.release
	}
}

// TestStreamFlushesOncePerBurst: deliveries that are already waiting in
// the tap go out together, complete and in order, with one flush for
// the burst instead of one per match — and the bytes on the wire are
// those of a stream flushed per match.
func TestStreamFlushesOncePerBurst(t *testing.T) {
	tr := serverTrace(t)
	want := referenceJSONL(t, tr, 0, 40)
	lines := strings.SplitAfter(want, "\n")
	lines = lines[:len(lines)-1]
	if len(lines) < 2 {
		t.Fatalf("%d matches; the burst needs at least 2", len(lines))
	}
	var sse strings.Builder
	sse.WriteString("event: ready\ndata: {\"query\":1,\"session\":\"default\"}\n\n")
	for _, l := range lines {
		fmt.Fprintf(&sse, "event: match\ndata: %s\n", l)
	}
	sse.WriteString("event: end\ndata: {\"dropped\":0}\n\n")

	for format, wantBody := range map[string]string{"jsonl": want, "sse": sse.String()} {
		t.Run(format, func(t *testing.T) {
			srv := New(Config{})
			defer srv.Shutdown()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()
			mustPost(t, client, ts.URL+"/v1/sessions", "application/json",
				fmt.Sprintf(`{"name":"default","queries":[{"id":1,"query":%q,"window":10,"duration":5}]}`, testQuery),
				http.StatusCreated)

			fc := newFlushCounter()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.Handler().ServeHTTP(fc, httptest.NewRequest("GET", "/v1/queries/1/stream?buffer=8192&format="+format, nil))
			}()
			select {
			case <-fc.first:
			case <-time.After(10 * time.Second):
				t.Fatal("stream never flushed its headers")
			}
			// The tap is attached; every match of the ingest is buffered
			// in it before the handler may read one.
			for _, body := range traceJSONL(t, tr, 0, 40, 40) {
				mustPost(t, client, ts.URL+"/v1/feeds/0/frames", "application/x-ndjson", body, http.StatusOK)
			}
			close(fc.release)
			req, _ := http.NewRequest("DELETE", ts.URL+"/v1/queries/1", nil)
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("stream never ended after unsubscribe")
			}

			if got := fc.body.String(); got != wantBody {
				t.Errorf("stream bytes differ from the per-match stream\n got %q\nwant %q", got, wantBody)
			}
			// One flush for the burst and one at the end, whichever way
			// the unsubscribe raced the burst.
			if n := fc.flushes - 1; n > 2 {
				t.Errorf("%d matches took %d flushes, want at most 2", len(lines), n)
			}
		})
	}
}
