package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tvq"
	"tvq/internal/vr"
)

// Config shapes a Server.
type Config struct {
	// Registry names the object classes; shared between the network
	// codecs and every session. Default tvq.StandardRegistry().
	Registry *tvq.Registry
	// SessionDefaults are applied to every session the server opens,
	// before any per-session options. Avoid WithQueries here (resumed
	// sessions reject it); register queries via the API instead.
	SessionDefaults []tvq.Option
	// CheckpointDir, when non-empty, makes every session checkpoint to
	// <dir>/<name>.tvqsnap on CheckpointEvery's cadence (and once at
	// shutdown), and restarts resume from those files.
	CheckpointDir   string
	CheckpointEvery tvq.Cadence
	// DefaultSession is the session name used when a request carries no
	// ?session= parameter; it is auto-created (or resumed) on first use.
	// Default "default".
	DefaultSession string
	// MaxQueuedBatches bounds how many ingest requests may be queued on
	// one session before the server answers 429 — the backpressure
	// valve. Default 64.
	MaxQueuedBatches int
	// MaxBatchFrames bounds the frames accepted in one ingest request.
	// Default 4096.
	MaxBatchFrames int
	// StreamBuffer is the default per-stream delivery buffer (overridden
	// per request with ?buffer=). A stream that falls further behind
	// loses oldest-first, with losses counted in /metrics. Default 256.
	StreamBuffer int
	// MaxStreamBuffer caps the per-request ?buffer= override (the
	// buffer is a real allocation; a request must not size it without
	// bound). Default 65536.
	MaxStreamBuffer int
	// Heartbeat is the SSE keep-alive comment interval; 0 disables.
	Heartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = tvq.StandardRegistry()
	}
	if c.DefaultSession == "" {
		c.DefaultSession = "default"
	}
	if c.MaxQueuedBatches <= 0 {
		c.MaxQueuedBatches = 64
	}
	if c.MaxBatchFrames <= 0 {
		c.MaxBatchFrames = 4096
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 256
	}
	if c.MaxStreamBuffer <= 0 {
		c.MaxStreamBuffer = 65536
	}
	if c.CheckpointDir != "" && c.CheckpointEvery == (tvq.Cadence{}) {
		c.CheckpointEvery = tvq.EveryFrames(1000)
	}
	return c
}

// Server is the HTTP serving surface over a tvq.SessionManager. Create
// one with New, mount Handler on an http.Server, and call Shutdown on
// the way out (it ends live streams and closes every session, writing
// final checkpoints).
type Server struct {
	cfg     Config
	mgr     *tvq.SessionManager
	metrics *Metrics
	mux     *http.ServeMux
	closing chan struct{}

	mu            sync.Mutex
	sessions      map[string]*sessionState
	defaultParams SessionParams // boot config, replayed on default auto-create
	closed        bool

	// createMu serializes session creation end to end (manager open,
	// query registration, table insert), so a request racing a create
	// can distinguish "exists" from "being created" by re-checking the
	// table after the conflict.
	createMu sync.Mutex
}

// sessionState is the server-side shell around one session: the ingest
// serialization lock, the backpressure gauge, and the fan-out sink of
// every subscription.
type sessionState struct {
	name string
	sess *tvq.Session

	ingestMu sync.Mutex // serializes Process calls (frame-order discipline)
	queuedMu sync.Mutex
	queued   int32 // ingest requests waiting on ingestMu; guarded by queuedMu

	subsMu sync.Mutex
	subs   map[int]*serverSub
}

type serverSub struct {
	sub  *tvq.Subscription
	sink *tvq.FanoutSink
}

// New builds a Server and its SessionManager.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  NewMetrics(),
		closing:  make(chan struct{}),
		sessions: make(map[string]*sessionState),
	}
	defaults := append([]tvq.Option{
		tvq.WithRegistry(cfg.Registry),
		tvq.WithObserver(s.metrics.Observe),
	}, cfg.SessionDefaults...)
	mopts := []tvq.ManagerOption{tvq.WithManagerDefaults(defaults...)}
	if cfg.CheckpointDir != "" {
		mopts = append(mopts, tvq.WithCheckpointDir(cfg.CheckpointDir, cfg.CheckpointEvery))
	}
	s.mgr = tvq.NewSessionManager(mopts...)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/feeds/{feed}/frames", s.handleIngest)
	mux.HandleFunc("POST /v1/queries", s.handleSubscribe)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleUnsubscribe)
	mux.HandleFunc("GET /v1/queries/{id}/stream", s.handleStream)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager returns the session manager behind the server, for embedders
// (the daemon's boot sequence, tests) that need direct session access.
func (s *Server) Manager() *tvq.SessionManager { return s.mgr }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown gracefully stops serving: live match streams end, in-flight
// ingest batches finish, and every session closes, writing its final
// checkpoint when a checkpoint directory is configured. Further
// requests are answered 503. Call http.Server.Shutdown after this to
// drain connections; Shutdown is idempotent.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closing) // ends streams so connection drain can complete
	s.sessions = make(map[string]*sessionState)
	s.mu.Unlock()
	// CloseAll serializes with in-flight Process calls on each session's
	// own lock, so the batch being evaluated right now completes and
	// reaches its sinks before the final checkpoint is written.
	return s.mgr.CloseAll()
}

// SessionParams is the JSON shape of a session-creation request (also
// used by the daemon for its boot-time default session).
type SessionParams struct {
	Method     string        `json:"method,omitempty"`      // naive | mfs | ssg
	Workers    int           `json:"workers,omitempty"`     // >1 = pooled
	Shard      string        `json:"shard,omitempty"`       // feed | group
	WindowMode string        `json:"window_mode,omitempty"` // sliding | tumbling
	Prune      bool          `json:"prune,omitempty"`
	Batch      int           `json:"batch,omitempty"`
	Disorder   int           `json:"disorder,omitempty"`    // >0 = absorb frames displaced up to this bound
	LatePolicy string        `json:"late_policy,omitempty"` // drop | error (implies disorder, bound 0 if unset)
	Queries    []QueryParams `json:"queries,omitempty"`
}

// QueryParams is the JSON shape of one query registration.
type QueryParams struct {
	ID       int    `json:"id,omitempty"` // 0 = assign the next free id
	Query    string `json:"query"`
	Window   int    `json:"window"`
	Duration int    `json:"duration"`
}

func (p SessionParams) options() ([]tvq.Option, error) {
	var opts []tvq.Option
	switch p.Method {
	case "":
	case "naive":
		opts = append(opts, tvq.WithMethod(tvq.MethodNaive))
	case "mfs":
		opts = append(opts, tvq.WithMethod(tvq.MethodMFS))
	case "ssg":
		opts = append(opts, tvq.WithMethod(tvq.MethodSSG))
	default:
		return nil, fmt.Errorf("unknown method %q (naive, mfs or ssg)", p.Method)
	}
	if p.Workers > 0 {
		opts = append(opts, tvq.WithWorkers(p.Workers))
	}
	switch p.Shard {
	case "":
	case "feed":
		opts = append(opts, tvq.WithShardMode(tvq.ShardByFeed))
	case "group":
		opts = append(opts, tvq.WithShardMode(tvq.ShardByGroup))
	default:
		return nil, fmt.Errorf("unknown shard mode %q (feed or group)", p.Shard)
	}
	switch p.WindowMode {
	case "":
	case "sliding":
		opts = append(opts, tvq.WithWindowMode(tvq.Sliding))
	case "tumbling":
		opts = append(opts, tvq.WithWindowMode(tvq.Tumbling))
	default:
		return nil, fmt.Errorf("unknown window mode %q (sliding or tumbling)", p.WindowMode)
	}
	if p.Prune {
		opts = append(opts, tvq.WithPruning(true))
	}
	if p.Batch > 0 {
		opts = append(opts, tvq.WithBatch(p.Batch))
	}
	if p.Disorder < 0 {
		return nil, fmt.Errorf("disorder bound %d must be non-negative", p.Disorder)
	}
	if p.Disorder > 0 || p.LatePolicy != "" {
		// A bare late_policy means a strict-order stage (bound 0): the
		// policy still governs replays and duplicates.
		opts = append(opts, tvq.WithDisorderBound(p.Disorder))
	}
	if p.LatePolicy != "" {
		pol, err := tvq.ParseLatePolicy(p.LatePolicy)
		if err != nil {
			return nil, fmt.Errorf("unknown late policy %q (drop or error)", p.LatePolicy)
		}
		opts = append(opts, tvq.WithLatePolicy(pol))
	}
	return opts, nil
}

// EnsureSession opens (or resumes) the named session with the given
// parameters, registering params.Queries as subscriptions on a fresh
// session (a resumed one restores its recorded query set instead). It
// reports whether the session was resumed from a checkpoint. The daemon
// uses it at boot; POST /v1/sessions is its HTTP face.
func (s *Server) EnsureSession(name string, params SessionParams) (resumed bool, err error) {
	_, resumed, err = s.openSession(name, params)
	return resumed, err
}

func (s *Server) openSession(name string, params SessionParams) (*sessionState, bool, error) {
	// Serialize creation: once a winner holds createMu it registers the
	// session in s.sessions before releasing it, so a loser's
	// ErrSessionExists always finds the winner's entry on re-check.
	s.createMu.Lock()
	defer s.createMu.Unlock()

	opts, err := params.options()
	if err != nil {
		return nil, false, err
	}
	st := &sessionState{name: name, subs: make(map[int]*serverSub)}
	// Restored subscriptions get their fan-out sinks reattached here, so
	// a resumed daemon serves streams for queries registered before the
	// restart without re-registration.
	opts = append(opts, tvq.WithSubscriptionSinks(func(q tvq.Query) tvq.Sink {
		sink := tvq.NewFanoutSink()
		st.subs[q.ID] = &serverSub{sink: sink}
		return sink
	}))

	sess, resumed, err := s.mgr.Open(nil, name, opts...)
	if err != nil {
		return nil, false, err
	}
	st.sess = sess
	if resumed {
		for _, sub := range sess.Subscriptions() {
			if ss := st.subs[sub.ID()]; ss != nil {
				ss.sub = sub
			}
		}
	} else {
		for _, qp := range params.Queries {
			if _, err := st.subscribe(qp); err != nil {
				// Roll back completely: the half-created session must not
				// leave a checkpoint behind, or a retried create would
				// silently resume the failed attempt's state (and ignore
				// the retry's queries).
				s.discardSession(name)
				return nil, false, err
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.mgr.Close(name) // shutdown race: keep the checkpoint, like CloseAll
		return nil, false, tvq.ErrSessionClosed
	}
	s.sessions[name] = st
	if name == s.cfg.DefaultSession {
		// Remember the boot configuration: if the default session is
		// later deleted, auto-creation replays these parameters rather
		// than silently downgrading to the zero config.
		s.defaultParams = params
	}
	return st, resumed, nil
}

// discardSession closes the named session and removes its checkpoint
// file: nothing of it survives. Used for failed creates and explicit
// API deletes; graceful shutdown deliberately keeps checkpoints.
func (s *Server) discardSession(name string) {
	_ = s.mgr.Close(name)
	if path := s.mgr.CheckpointPath(name); path != "" {
		_ = os.Remove(path)
	}
}

// subscribe registers one query with a fresh fan-out sink.
func (st *sessionState) subscribe(qp QueryParams) (int, error) {
	q, err := tvq.ParseQuery(qp.ID, qp.Query, qp.Window, qp.Duration)
	if err != nil {
		return 0, err
	}
	sink := tvq.NewFanoutSink()
	sub, err := st.sess.Subscribe(q, tvq.WithSink(sink))
	if err != nil {
		return 0, err
	}
	st.subsMu.Lock()
	st.subs[sub.ID()] = &serverSub{sub: sub, sink: sink}
	st.subsMu.Unlock()
	return sub.ID(), nil
}

// sessionFor resolves the request's session: the ?session= name, or the
// default session, auto-created on first use. Named sessions other than
// the default must be created explicitly first.
func (s *Server) sessionFor(r *http.Request) (*sessionState, error) {
	name := r.URL.Query().Get("session")
	if name == "" {
		name = s.cfg.DefaultSession
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, tvq.ErrSessionClosed
	}
	st := s.sessions[name]
	s.mu.Unlock()
	if st != nil {
		return st, nil
	}
	if name != s.cfg.DefaultSession {
		return nil, fmt.Errorf("session %q: %w", name, tvq.ErrUnknownSession)
	}
	// Auto-create the default session with the remembered boot
	// parameters. openSession serializes with any concurrent create, so
	// a conflict here means the winner has already registered — use its
	// session rather than bouncing a spurious 409 (which an ingest
	// client would misread as a cursor error).
	s.mu.Lock()
	params := s.defaultParams
	s.mu.Unlock()
	st, _, err := s.openSession(name, params)
	if errors.Is(err, tvq.ErrSessionExists) {
		s.mu.Lock()
		st = s.sessions[name]
		s.mu.Unlock()
		if st != nil {
			return st, nil
		}
	}
	return st, err
}

// httpError maps library errors onto HTTP statuses and writes a JSON
// error body.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, tvq.ErrUnknownSession):
		code = http.StatusNotFound
	case errors.Is(err, tvq.ErrSessionExists),
		errors.Is(err, tvq.ErrDuplicateQuery),
		errors.Is(err, tvq.ErrPruningIncompatible),
		errors.Is(err, tvq.ErrLateFrame),
		errors.Is(err, errFrameOrder):
		code = http.StatusConflict
	case errors.Is(err, tvq.ErrSessionClosed):
		code = http.StatusServiceUnavailable
	case errors.As(err, new(unsupportedMediaError)):
		code = http.StatusUnsupportedMediaType
	case isBadRequest(err):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// badRequestError marks request-shaped failures (malformed JSON, bad
// parameters, parse errors) for the 400 mapping.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
}

func isBadRequest(err error) bool {
	var br badRequestError
	var pe *tvq.ParseError
	return errors.As(err, &br) || errors.As(err, &pe)
}

// errFrameOrder tags out-of-order ingest so it maps to 409 with the
// expected cursor in the body rather than a 500.
var errFrameOrder = errors.New("frame out of order")

// unsupportedMediaError rejects an ingest Content-Type no codec claims;
// it maps to 415 and names every supported type so a misconfigured
// client can self-correct from the error body alone.
type unsupportedMediaError struct{ ct string }

func (e unsupportedMediaError) Error() string {
	types := []string{"application/x-www-form-urlencoded (treated as JSONL)"}
	for _, c := range vr.Codecs() {
		types = append(types, c.ContentType())
	}
	return fmt.Sprintf("unsupported Content-Type %q; supported: %s", e.ct, strings.Join(types, ", "))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": n})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	depth := 0
	for _, st := range s.sessions {
		if st.sess.Disordered() {
			depth += st.sess.ReorderDepth()
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, n, depth)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		SessionParams
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, badRequest("decode session request: %v", err))
		return
	}
	if req.Name == "" {
		req.Name = s.cfg.DefaultSession
	}
	st, resumed, err := s.openSession(req.Name, req.SessionParams)
	if err != nil {
		if !errors.Is(err, tvq.ErrSessionExists) && !errors.Is(err, tvq.ErrSessionClosed) &&
			!errors.Is(err, tvq.ErrDuplicateQuery) && !errors.Is(err, tvq.ErrPruningIncompatible) {
			err = badRequestError{err}
		}
		httpError(w, err)
		return
	}
	ids := st.queryIDs()
	writeJSON(w, http.StatusCreated, map[string]any{
		"name": req.Name, "resumed": resumed, "queries": ids,
	})
}

func (st *sessionState) queryIDs() []int {
	st.subsMu.Lock()
	defer st.subsMu.Unlock()
	ids := make([]int, 0, len(st.subs))
	for id := range st.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := make([]*sessionState, 0, len(s.sessions))
	for _, st := range s.sessions {
		states = append(states, st)
	}
	s.mu.Unlock()
	type info struct {
		Name    string `json:"name"`
		Method  string `json:"method"`
		Workers int    `json:"workers"`
		Queries []int  `json:"queries"`
		States  int    `json:"states"`
		NextFID int64  `json:"next_fid"`
	}
	out := make([]info, 0, len(states))
	for _, st := range states {
		out = append(out, info{
			Name:    st.name,
			Method:  string(st.sess.Method()),
			Workers: st.sess.Workers(),
			Queries: st.queryIDs(),
			States:  st.sess.StateCount(),
			NextFID: st.sess.NextFID(0),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// handleDeleteSession is DELETE /v1/sessions/{name}: the session closes
// and its checkpoint is removed — a later create of the same name
// starts fresh. (Graceful shutdown is the opposite: it keeps
// checkpoints so a restart resumes.)
func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	st := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if st == nil {
		httpError(w, fmt.Errorf("session %q: %w", name, tvq.ErrUnknownSession))
		return
	}
	s.discardSession(name)
	writeJSON(w, http.StatusOK, map[string]any{"closed": name})
}

// handleIngest is POST /v1/feeds/{feed}/frames: a batch of frames for
// one feed, encoded per the request's Content-Type — JSONL (one
// {"fid":..,"objects":[..]} object per line; also the default for a
// missing or form-encoded Content-Type, which is what bare curl
// --data-binary sends) or the binary wire format
// (application/x-tvq-frames). Any other type is answered 415 listing
// the supported ones. Frames must continue the feed's cursor exactly; a
// gap or replay is answered 409 with the expected id in next_fid.
// Backpressure: when more than MaxQueuedBatches requests are already
// waiting on this session, the request is answered 429 immediately
// (Retry-After: 1) instead of queueing without bound.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.metrics.ingestRequests.Add(1)
	feed64, err := strconv.ParseInt(r.PathValue("feed"), 10, 32)
	if err != nil || feed64 < 0 {
		httpError(w, badRequest("feed id %q is not a non-negative integer", r.PathValue("feed")))
		return
	}
	feed := tvq.FeedID(feed64)
	codec, err := ingestCodec(r)
	if err != nil {
		httpError(w, err)
		return
	}
	st, err := s.sessionFor(r)
	if err != nil {
		httpError(w, err)
		return
	}
	// Feed validity is a property of the session's shape (immutable
	// after open), so it gates every request — including an empty batch,
	// whose next_fid response must not leak feed 0's cursor for a feed
	// the session does not serve.
	if feed != 0 && !st.sess.MultiFeed() {
		httpError(w, badRequest("session %q serves feed 0 only; create it with workers>1 and shard=feed for multi-feed ingest", st.name))
		return
	}

	frames, bytesRead, err := s.decodeFrames(w, r, codec)
	s.metrics.addIngestBytes(codec.Name(), bytesRead)
	if err != nil {
		httpError(w, err)
		return
	}
	if len(frames) == 0 {
		writeAck(w, ack{next: st.sess.NextFID(feed)})
		return
	}

	// Backpressure valve: count this request against the session's queue
	// before blocking on the ingest lock.
	st.queuedMu.Lock()
	if int(st.queued) >= s.cfg.MaxQueuedBatches {
		st.queuedMu.Unlock()
		s.metrics.ingestRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "ingest queue full; retry"})
		return
	}
	st.queued++
	st.queuedMu.Unlock()
	defer func() {
		st.queuedMu.Lock()
		st.queued--
		st.queuedMu.Unlock()
	}()

	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	select {
	case <-s.closing:
		httpError(w, tvq.ErrSessionClosed)
		return
	default:
	}

	// Validate the cursor under the ingest lock (TOCTOU-free). A strict
	// session requires the batch to continue the feed exactly where it
	// stands; the 409 body carries next_fid so a client can drop
	// already-ingested frames and retry the remainder without a second
	// round trip. A disordered session skips the check — absorbing
	// displaced batches is the reorder stage's whole point — and its
	// late-frame policy resolves whatever the bound cannot.
	disordered := st.sess.Disordered()
	if !disordered {
		next := st.sess.NextFID(feed)
		for i, f := range frames {
			if f.FID != next+int64(i) {
				err := fmt.Errorf("%w: frame %d at batch index %d, feed %d expects %d",
					errFrameOrder, f.FID, i, feed, next+int64(i))
				writeJSON(w, http.StatusConflict, map[string]any{
					"error":    err.Error(),
					"next_fid": next,
				})
				return
			}
		}
	}
	ffs := make([]tvq.FeedFrame, len(frames))
	for i, f := range frames {
		ffs[i] = tvq.FeedFrame{Feed: feed, Frame: f}
	}
	var lateBefore uint64
	if disordered {
		lateBefore = st.sess.LateFrames()
	}
	results, err := st.sess.Process(ffs)
	var late uint64
	if disordered {
		late = st.sess.LateFrames() - lateBefore
		s.metrics.lateFrames.Add(late)
	}
	if err != nil {
		if errors.Is(err, tvq.ErrLateFrame) {
			// The LateError policy refused a frame; everything the stage
			// released before it was processed. Answer like an order
			// conflict — 409 with the cursor — so clients converge the
			// same way.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":    err.Error(),
				"next_fid": st.sess.NextFID(feed),
			})
			return
		}
		httpError(w, err)
		return
	}
	matches := 0
	for _, res := range results {
		matches += len(res.Matches)
	}
	s.metrics.framesIngested.Add(uint64(len(frames)))
	s.metrics.matchesEmitted.Add(uint64(matches))
	a := ack{accepted: len(frames), matches: matches, next: st.sess.NextFID(feed), disordered: disordered}
	if disordered {
		a.late, a.depth = late, st.sess.ReorderDepth()
	}
	writeAck(w, a)
}

// ack is the answer to an accepted ingest request. A disordered
// session's ack adds late and reorder_depth.
type ack struct {
	accepted, matches int
	next              int64
	disordered        bool
	late              uint64
	depth             int
}

// writeAck writes a as a 200 response, in the bytes writeJSON wrote for
// the map {"accepted", "matches", "next_fid"[, "late", "reorder_depth"]}:
// keys in encoding/json's sorted order and a trailing newline.
func writeAck(w http.ResponseWriter, a ack) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendAck(make([]byte, 0, 128), a))
}

func appendAck(b []byte, a ack) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(a.accepted), 10)
	if a.disordered {
		b = append(b, `,"late":`...)
		b = strconv.AppendUint(b, a.late, 10)
	}
	b = append(b, `,"matches":`...)
	b = strconv.AppendInt(b, int64(a.matches), 10)
	b = append(b, `,"next_fid":`...)
	b = strconv.AppendInt(b, a.next, 10)
	if a.disordered {
		b = append(b, `,"reorder_depth":`...)
		b = strconv.AppendInt(b, int64(a.depth), 10)
	}
	return append(b, "}\n"...)
}

// ingestCodec resolves the request's Content-Type to a frame codec. A
// missing or form-encoded type means JSONL: that is what a bare curl
// --data-binary sends, and rejecting it would break every quickstart
// one-liner. Everything else must name a codec exactly.
func ingestCodec(r *http.Request) (vr.Codec, error) {
	ct := r.Header.Get("Content-Type")
	mt := ct
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	switch strings.ToLower(strings.TrimSpace(mt)) {
	case "", "application/x-www-form-urlencoded":
		return vr.JSONL, nil
	}
	if c, ok := vr.CodecByContentType(ct); ok {
		return c, nil
	}
	return nil, unsupportedMediaError{ct: ct}
}

// countingReader counts bytes read through it, for the ingest byte
// metrics that back the wire-efficiency comparison between codecs.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeFrames streams the request body through the negotiated codec's
// frame reader, so ingest never materializes the whole batch's encoded
// form — only the decoded frames, whose count MaxBatchFrames bounds.
// Binary-decoded frames arrive with Owned set (the decoder allocates
// fresh storage per frame), which the processing layers use to skip the
// clone-on-retain; JSONL frames stay on the borrowed path. The byte
// count is returned even on error so metrics account for rejected
// bodies.
func (s *Server) decodeFrames(w http.ResponseWriter, r *http.Request, codec vr.Codec) ([]tvq.Frame, int64, error) {
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, 64<<20)}
	fr := codec.NewFrameReader(cr, s.cfg.Registry)
	var frames []tvq.Frame
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return frames, cr.n, nil
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, cr.n, badRequest("request body exceeds %d bytes", tooLarge.Limit)
			}
			return nil, cr.n, badRequest("frame %d of batch: %v", len(frames), err)
		}
		if len(frames) >= s.cfg.MaxBatchFrames {
			return nil, cr.n, badRequest("batch exceeds %d frames; split it", s.cfg.MaxBatchFrames)
		}
		frames = append(frames, f)
	}
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	st, err := s.sessionFor(r)
	if err != nil {
		httpError(w, err)
		return
	}
	var qp QueryParams
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&qp); err != nil {
		httpError(w, badRequest("decode query request: %v", err))
		return
	}
	// Subscribe shares the session's single-caller discipline with
	// Process; take the ingest lock so a live feed and a registration
	// cannot interleave.
	st.ingestMu.Lock()
	id, err := st.subscribe(qp)
	st.ingestMu.Unlock()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "session": st.name})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
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
	delete(st.subs, id)
	st.subsMu.Unlock()
	if ss == nil || ss.sub == nil {
		httpError(w, badRequest("no subscription %d on session %q", id, st.name))
		return
	}
	if err := ss.sub.Cancel(); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": id})
}
