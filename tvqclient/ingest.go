package tvqclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"tvq"
)

// IngestResult accumulates what the daemon accepted over one Ingest
// call (possibly several HTTP requests).
type IngestResult struct {
	// Accepted counts frames the daemon ingested for this call.
	Accepted int
	// Matches counts query matches those frames produced.
	Matches int
	// NextFID is the feed's cursor after the call: the frame id the
	// daemon expects next.
	NextFID int64
	// Skipped counts frames dropped locally because the daemon had
	// already ingested them (a 409 cursor correction mid-call — another
	// producer, or a retried request whose response was lost).
	Skipped int
}

// ErrCursorStalled reports a 409 retry loop that cannot converge: the
// daemon rejected a batch without moving its cursor past where it
// already stood, so resending the same frames would draw the same
// rejection forever. It indicates a server- or state-level problem —
// not a racing producer, whose ingests always advance the cursor.
var ErrCursorStalled = errors.New("tvqclient: feed cursor stalled")

// Ingest sends frames of one feed, batched per WithBatch and encoded
// per WithCodec. Frames must be in frame-id order. When the daemon
// answers 409 (the batch does not continue the feed's cursor), the
// reported next_fid prunes the already-ingested prefix and the rest is
// retried — up to WithCursorRetries corrections — so an at-least-once
// producer converges on the cursor instead of failing. A cursor ahead
// of the daemon's (a gap the client cannot fill) is an error, as is a
// 409 whose cursor did not advance past the previous correction's
// (wrapping ErrCursorStalled): convergence requires progress, and a
// stalled cursor means the daemon would reject the resend too.
func (c *Client) Ingest(ctx context.Context, feed tvq.FeedID, frames []tvq.Frame) (IngestResult, error) {
	var res IngestResult
	retries := c.retries
	lastNext := int64(-1)
	for len(frames) > 0 {
		n := min(c.batch, len(frames))
		br, err := c.ingestBatchRetry(ctx, feed, frames[:n])
		if conflict, ok := err.(*cursorConflictError); ok {
			if lastNext >= 0 && conflict.nextFID <= lastNext {
				return res, fmt.Errorf("%w: feed %d cursor stuck at %d after a correction to %d: %v",
					ErrCursorStalled, feed, conflict.nextFID, lastNext, conflict.apiErr)
			}
			lastNext = conflict.nextFID
			if retries == 0 {
				return res, fmt.Errorf("tvqclient: cursor conflicts exhausted %d retries: %w", c.retries, conflict.apiErr)
			}
			retries--
			// Drop frames the daemon already has; anything left either
			// fills the gap (retry) or starts past the cursor (real gap —
			// the daemon can never accept it from us).
			skip := 0
			for skip < len(frames) && frames[skip].FID < conflict.nextFID {
				skip++
			}
			res.Skipped += skip
			frames = frames[skip:]
			if len(frames) > 0 && frames[0].FID != conflict.nextFID {
				return res, fmt.Errorf("tvqclient: feed %d cursor is %d but next local frame is %d (gap): %w",
					feed, conflict.nextFID, frames[0].FID, conflict.apiErr)
			}
			res.NextFID = conflict.nextFID
			continue
		}
		if err != nil {
			return res, err
		}
		res.Accepted += br.Accepted
		res.Matches += br.Matches
		res.NextFID = br.NextFID
		frames = frames[n:]
	}
	return res, nil
}

// IngestTrace sends a whole trace as one feed, from frame 0.
func (c *Client) IngestTrace(ctx context.Context, feed tvq.FeedID, t *tvq.Trace) (IngestResult, error) {
	return c.Ingest(ctx, feed, t.Frames())
}

// cursorConflictError carries a 409's structured cursor for the retry
// loop; it never escapes Ingest.
type cursorConflictError struct {
	nextFID int64
	apiErr  *APIError
}

func (e *cursorConflictError) Error() string { return e.apiErr.Error() }

func (c *Client) ingestBatch(ctx context.Context, feed tvq.FeedID, frames []tvq.Frame) (batchResult, error) {
	var body bytes.Buffer
	fw := c.codec.NewFrameWriter(&body, c.reg)
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			return batchResult{}, fmt.Errorf("tvqclient: encode frame %d: %w", f.FID, err)
		}
	}
	if err := fw.Flush(); err != nil {
		return batchResult{}, fmt.Errorf("tvqclient: encode batch: %w", err)
	}

	path := "/v1/feeds/" + strconv.FormatInt(int64(feed), 10) + "/frames"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path, nil), bytes.NewReader(body.Bytes()))
	if err != nil {
		return batchResult{}, err
	}
	req.Header.Set("Content-Type", c.codec.ContentType())

	resp, err := c.hc.Do(req)
	if err != nil {
		return batchResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return batchResult{}, err
	}
	if resp.StatusCode == http.StatusConflict {
		var conflict struct {
			Error   string `json:"error"`
			NextFID *int64 `json:"next_fid"`
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: errorMessage(data)}
		if json.Unmarshal(data, &conflict) == nil && conflict.NextFID != nil {
			return batchResult{}, &cursorConflictError{nextFID: *conflict.NextFID, apiErr: apiErr}
		}
		return batchResult{}, apiErr
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return batchResult{}, &APIError{StatusCode: resp.StatusCode, Message: errorMessage(data)}
	}
	br, err := decodeAck(data)
	if err != nil {
		return batchResult{}, fmt.Errorf("tvqclient: decode ingest response: %w", err)
	}
	return br, nil
}
