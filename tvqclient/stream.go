package tvqclient

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"

	"tvq"
)

// Stream attaches to the live match stream of one query subscription
// and yields deliveries as the daemon emits them, using the chunked
// JSONL stream format. The sequence ends without error when the
// subscription is cancelled or the daemon shuts down; transport and
// decode failures are yielded once as a non-nil error, then the
// sequence ends. Matches for frames ingested before the stream
// attaches are not replayed.
//
// The daemon buffers a bounded number of deliveries per stream and
// drops oldest-first when the consumer falls behind; size the buffer
// with WithStreamBuffer when losing matches is worse than memory.
func (c *Client) Stream(ctx context.Context, queryID int) iter.Seq2[tvq.Delivery, error] {
	return c.stream(ctx, queryID, "jsonl")
}

// StreamSSE is Stream over the Server-Sent Events format — the one a
// browser's EventSource speaks — yielding the same deliveries. Prefer
// Stream for Go consumers; use this to exercise exactly what a web
// client will see.
func (c *Client) StreamSSE(ctx context.Context, queryID int) iter.Seq2[tvq.Delivery, error] {
	return c.stream(ctx, queryID, "sse")
}

func (c *Client) streamURL(queryID int, format string) string {
	params := url.Values{"format": {format}}
	if c.streamBuf > 0 {
		params.Set("buffer", strconv.Itoa(c.streamBuf))
	}
	return c.url("/v1/queries/"+strconv.Itoa(queryID)+"/stream", params)
}

func (c *Client) stream(ctx context.Context, queryID int, format string) iter.Seq2[tvq.Delivery, error] {
	return func(yield func(tvq.Delivery, error) bool) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.streamURL(queryID, format), nil)
		if err != nil {
			yield(tvq.Delivery{}, err)
			return
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			yield(tvq.Delivery{}, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			yield(tvq.Delivery{}, &APIError{StatusCode: resp.StatusCode, Message: errorMessage(body)})
			return
		}

		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 4<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if format == "sse" {
				// Only match events carry deliveries; ready/end/shutdown
				// events, their data lines, comments and blank separators
				// are framing. A data line is recognizable on its own
				// because every delivery object starts with "feed".
				data, ok := bytes.CutPrefix(line, []byte("data: "))
				if !ok || !bytes.HasPrefix(data, []byte(`{"feed"`)) {
					continue
				}
				line = data
			} else if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			d, err := decodeDelivery(line)
			if err != nil {
				// A cancelled ctx cuts the connection wherever it is, and
				// the scanner hands over the fragment of the line it had:
				// the requested end, like the read error below.
				if ctx.Err() == nil {
					yield(tvq.Delivery{}, err)
				}
				return
			}
			if !yield(d, nil) {
				return
			}
		}
		// A consumer cancelling ctx tears the connection down mid-read;
		// that is a requested end, not a failure worth yielding.
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			yield(tvq.Delivery{}, fmt.Errorf("tvqclient: read stream: %w", err))
		}
	}
}
