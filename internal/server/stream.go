package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tvq"
)

// handleStream is GET /v1/queries/{id}/stream: a live match stream for
// one subscription, as Server-Sent Events (default, or ?format=sse) or
// chunked JSONL (?format=jsonl, also chosen by Accept:
// application/x-ndjson). Each delivery is one JSON object in exactly
// the tvq.JSONLSink schema — {"feed","fid","query","objects","frames"}
// — so a consumer of the HTTP stream and a consumer of a local JSONL
// sink parse the same lines.
//
// The stream attaches a tap to the subscription's fan-out sink:
// deliveries buffer up to ?buffer= entries (default Config.
// StreamBuffer) and a consumer that falls further behind loses
// oldest-first; losses are reported in a final "dropped" event (SSE)
// and counted in /metrics. The stream ends when the client disconnects,
// the subscription is cancelled, or the server shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	st, err := s.sessionFor(r)
	if err != nil {
		httpError(w, err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, badRequest("query id %q is not an integer", r.PathValue("id")))
		return
	}
	st.subsMu.Lock()
	ss := st.subs[id]
	st.subsMu.Unlock()
	if ss == nil {
		httpError(w, badRequest("no subscription %d on session %q", id, st.name))
		return
	}

	buffer := s.cfg.StreamBuffer
	if b := r.URL.Query().Get("buffer"); b != "" {
		n, err := strconv.Atoi(b)
		if err != nil || n < 1 {
			httpError(w, badRequest("buffer %q is not a positive integer", b))
			return
		}
		// Cap, don't trust: the buffer is a channel allocation, and an
		// unauthenticated request must not size it arbitrarily.
		buffer = min(n, s.cfg.MaxStreamBuffer)
	}

	format := r.URL.Query().Get("format")
	if format == "" {
		if strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
			format = "jsonl"
		} else {
			format = "sse"
		}
	}
	switch format {
	case "sse", "jsonl":
	default:
		httpError(w, badRequest("unknown stream format %q (sse or jsonl)", format))
		return
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, fmt.Errorf("response writer cannot stream"))
		return
	}

	tap := ss.sink.Tap(buffer)
	defer tap.Close()
	s.metrics.streamsActive.Add(1)
	s.metrics.streamsServed.Add(1)
	// Publish drop-counter deltas as the stream runs (not only at the
	// end): an operator watching tvq_stream_dropped_total is usually
	// diagnosing a live slow consumer.
	var reported uint64
	reportDrops := func() {
		if d := tap.Dropped(); d > reported {
			s.metrics.droppedTotal.Add(d - reported)
			reported = d
		}
	}
	defer func() {
		s.metrics.streamsActive.Add(-1)
		reportDrops()
	}()

	if format == "sse" {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		// Tell the client the tap is live: matches for frames ingested
		// from here on will be seen (earlier ones will not).
		fmt.Fprintf(w, "event: ready\ndata: {\"query\":%d,\"session\":%q}\n\n", id, st.name)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
	}
	flusher.Flush()

	// Encode each delivery through a real JSONLSink so the wire bytes
	// are identical to a local JSONL sink's output, line for line.
	var buf bytes.Buffer
	enc := tvq.NewJSONLSink(&buf)

	var heartbeat <-chan time.Time
	if s.cfg.Heartbeat > 0 {
		t := time.NewTicker(s.cfg.Heartbeat)
		defer t.Stop()
		heartbeat = t.C
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			if format == "sse" {
				fmt.Fprintf(w, "event: shutdown\ndata: {}\n\n")
				flusher.Flush()
			}
			return
		case <-heartbeat:
			if format == "sse" {
				fmt.Fprintf(w, ": ping\n\n")
				flusher.Flush()
			}
		case d, open := <-tap.C():
			// Write this delivery and the k the tap held behind it — at
			// most one buffer's worth, so the other cases stay live — and
			// flush once. The receives do not wait: a held delivery
			// leaves the tap only here, or to make room for a newer one
			// that the same locked Deliver sends at once; a closed tap
			// answers at once.
			for k := len(tap.C()); open; k-- {
				if writeMatch(w, &buf, enc, d, format == "sse") != nil {
					return
				}
				if k == 0 {
					break
				}
				d, open = <-tap.C()
			}
			reportDrops()
			if !open {
				// Subscription cancelled (or sink closed): end the stream
				// cleanly, with the drop count.
				if format == "sse" {
					fmt.Fprintf(w, "event: end\ndata: {\"dropped\":%d}\n\n", tap.Dropped())
				}
				flusher.Flush()
				return
			}
			flusher.Flush()
		}
	}
}

// writeMatch writes one delivery as a JSONL line, or as an SSE match
// event carrying that line.
func writeMatch(w io.Writer, buf *bytes.Buffer, enc *tvq.JSONLSink, d tvq.Delivery, sse bool) error {
	buf.Reset()
	if err := enc.Deliver(d); err != nil {
		return err
	}
	if !sse {
		_, err := w.Write(buf.Bytes())
		return err
	}
	if _, err := io.WriteString(w, "event: match\ndata: "); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()[:buf.Len()-1]); err != nil { // the line without its newline
		return err
	}
	_, err := io.WriteString(w, "\n\n")
	return err
}
