// Package tvqclient is the Go client for the tvqd serving daemon: it
// wraps the HTTP API — session management, batched frame ingest, query
// subscriptions, and live match streams — behind typed methods, so a
// feed producer or match consumer never hand-rolls requests.
//
// Quick start:
//
//	c := tvqclient.New("http://127.0.0.1:7800")
//	_, err := c.CreateSession(ctx, "", tvqclient.SessionParams{
//	    Queries: []tvqclient.QueryParams{{ID: 1, Query: "car >= 1 AND person >= 2", Window: 600, Duration: 450}},
//	})
//	...
//	res, err := c.IngestTrace(ctx, 0, trace) // binary wire format, batched
//	...
//	for d, err := range c.Stream(ctx, 1) {
//	    if err != nil { ... }
//	    fmt.Println(d.FID, d.Match.Objects)
//	}
//
// Ingest uses the binary wire format by default — the same frames as
// JSONL in a fraction of the bytes, and the daemon's fast (ownership
// transfer) path — switchable with WithCodec for debugging. Batches
// that race another producer are retried from the server's reported
// cursor (the structured next_fid in 409 responses), so at-least-once
// producers converge instead of failing.
package tvqclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"tvq"
)

// Client talks to one tvqd daemon. Methods are safe for concurrent use
// (the underlying http.Client is); frames of one feed must still be
// ingested by one goroutine at a time, in order, as the server's cursor
// demands.
type Client struct {
	base      string
	hc        *http.Client
	codec     tvq.Codec
	reg       *tvq.Registry
	session   string
	batch     int
	retries   int
	streamBuf int

	// sessionQuery is "?session=<name>" when WithSession pinned a
	// session, built once by New for every request path to end with.
	sessionQuery string

	// Transient-failure retry (WithRetryBackoff); zero tries = fail
	// fast.
	backoffTries int
	backoffBase  time.Duration
	backoffMax   time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client (timeouts, transports,
// test servers). Default http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithCodec selects the ingest wire format. Default tvq.BinaryCodec;
// use tvq.JSONLCodec when wire-level debuggability beats throughput.
func WithCodec(codec tvq.Codec) Option { return func(c *Client) { c.codec = codec } }

// WithRegistry sets the class registry shared with the daemon. Default
// tvq.StandardRegistry().
func WithRegistry(reg *tvq.Registry) Option { return func(c *Client) { c.reg = reg } }

// WithSession pins every request to the named session instead of the
// daemon's default session.
func WithSession(name string) Option { return func(c *Client) { c.session = name } }

// WithBatch sets the maximum frames per ingest request. Default 512;
// the server's own MaxBatchFrames (default 4096) caps it from the
// other side.
func WithBatch(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.batch = n
		}
	}
}

// WithStreamBuffer asks the daemon to buffer up to n deliveries per
// stream before dropping oldest-first (the daemon caps it at its
// MaxStreamBuffer). Zero keeps the daemon's default.
func WithStreamBuffer(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.streamBuf = n
		}
	}
}

// WithCursorRetries bounds how many 409 cursor corrections one Ingest
// call absorbs before giving up. Default 3.
func WithCursorRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// New builds a client for the daemon at base (e.g.
// "http://127.0.0.1:7800").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      http.DefaultClient,
		codec:   tvq.BinaryCodec,
		reg:     tvq.StandardRegistry(),
		batch:   512,
		retries: 3,
	}
	for _, o := range opts {
		o(c)
	}
	if c.session != "" {
		c.sessionQuery = "?" + url.Values{"session": {c.session}}.Encode()
	}
	return c
}

// APIError is a non-2xx daemon response: the status code and the
// error message from the JSON body.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("tvqd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// SessionParams shapes a session at creation, mirroring the daemon's
// session API.
type SessionParams struct {
	Method     string        `json:"method,omitempty"`      // naive | mfs | ssg
	Workers    int           `json:"workers,omitempty"`     // >1 = pooled
	Shard      string        `json:"shard,omitempty"`       // feed | group
	WindowMode string        `json:"window_mode,omitempty"` // sliding | tumbling
	Prune      bool          `json:"prune,omitempty"`
	Batch      int           `json:"batch,omitempty"`
	Disorder   int           `json:"disorder,omitempty"`    // >0 = absorb frames displaced up to this bound
	LatePolicy string        `json:"late_policy,omitempty"` // drop | error
	Queries    []QueryParams `json:"queries,omitempty"`
}

// QueryParams is one query registration.
type QueryParams struct {
	ID       int    `json:"id,omitempty"` // 0 = daemon assigns the next free id
	Query    string `json:"query"`
	Window   int    `json:"window"`
	Duration int    `json:"duration"`
}

// SessionInfo is one row of the daemon's session listing.
type SessionInfo struct {
	Name    string `json:"name"`
	Method  string `json:"method"`
	Workers int    `json:"workers"`
	Queries []int  `json:"queries"`
	States  int    `json:"states"`
	NextFID int64  `json:"next_fid"`
}

// CreateResult reports a session creation.
type CreateResult struct {
	Name    string `json:"name"`
	Resumed bool   `json:"resumed"`
	Queries []int  `json:"queries"`
}

// url assembles base+path with the client's session (if any) and extra
// query parameters.
func (c *Client) url(path string, params url.Values) string {
	if len(params) == 0 {
		return c.base + path + c.sessionQuery
	}
	if c.session != "" {
		params.Set("session", c.session)
	}
	return c.base + path + "?" + params.Encode()
}

// do runs a request and decodes the JSON response into out (when
// non-nil); non-2xx statuses become *APIError.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return &APIError{StatusCode: resp.StatusCode, Message: errorMessage(body)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(path, nil), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// CreateSession creates (or resumes, when the daemon holds a
// checkpoint) the named session; an empty name means the daemon's
// default session. params.Queries are registered on a fresh session; a
// resumed one restores its recorded query set instead, reported in the
// result.
func (c *Client) CreateSession(ctx context.Context, name string, params SessionParams) (CreateResult, error) {
	req := struct {
		Name string `json:"name,omitempty"`
		SessionParams
	}{Name: name, SessionParams: params}
	var out CreateResult
	err := c.postJSON(ctx, "/v1/sessions", req, &out)
	return out, err
}

// DeleteSession closes the named session and discards its checkpoint.
func (c *Client) DeleteSession(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v1/sessions/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// Sessions lists the daemon's open sessions.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	var out []SessionInfo
	err = c.do(req, &out)
	return out, err
}

// Subscribe registers a query on the client's session and returns its
// id (qp.ID when set, otherwise daemon-assigned).
func (c *Client) Subscribe(ctx context.Context, qp QueryParams) (int, error) {
	var out struct {
		ID int `json:"id"`
	}
	err := c.postJSON(ctx, "/v1/queries", qp, &out)
	return out.ID, err
}

// Unsubscribe cancels the query subscription with the given id; its
// streams end.
func (c *Client) Unsubscribe(ctx context.Context, id int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.url("/v1/queries/"+strconv.Itoa(id), nil), nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}
