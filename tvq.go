// Package tvq evaluates temporal co-occurrence queries over video feeds,
// implementing the system of "Evaluating Temporal Queries Over Video
// Feeds" (Chen, Yu, Koudas; 2020/2021).
//
// A video feed is reduced, by an object detection and tracking stage, to
// a structured relation VR(fid, id, class): object id of class class was
// detected in frame fid. Over that relation, tvq answers sliding-window
// CNF queries about the joint presence of objects, such as
//
//	car >= 1 AND person >= 2        (window 600 frames, duration 450)
//
// — "report every maximal set of tracked objects containing at least one
// car and two people that appear jointly in at least 450 of the last 600
// frames". The engine maintains, incrementally, every maximum
// co-occurrence object set (MCOS) of the window using one of three
// strategies from the paper (the NAIVE baseline, Marked Frame Sets, or
// the Strict State Graph), evaluates the CNF conditions of all queries
// of a window with one shared plan, and optionally feeds evaluation
// results back into state maintenance (the ≥-only pruning strategy).
//
// # Quick start
//
// A Session is the serving surface: open one with functional options,
// then stream frames through it and range over the matches:
//
//	s, err := tvq.Open(ctx, tvq.WithQueries(
//	    tvq.MustQuery(1, "car >= 1 AND person >= 2", 600, 450)))
//	...
//	defer s.Close()
//	for frame, matches := range s.Stream(ctx, tvq.TraceFrames(trace)) {
//	    for _, m := range matches {
//	        fmt.Println(frame.FID, m.QueryID, m.Objects)
//	    }
//	}
//
// Queries can also join and leave while frames flow — on single-engine
// and pooled sessions alike — with per-subscription delivery through a
// pluggable Sink:
//
//	sub, err := s.Subscribe(tvq.MustQuery(0, "#501 AND person >= 2", 150, 100),
//	    tvq.WithSink(tvq.SinkFunc(func(d tvq.Delivery) error {
//	        fmt.Println("hit:", d.FID, d.Match.Objects)
//	        return nil
//	    })))
//	...
//	sub.Cancel()
//
// Traces come from the CSV/JSONL codecs (ReadTraceCSV, ReadTraceJSONL),
// or from the built-in synthetic video generator (GenerateDataset), which
// reproduces the statistical shape of the paper's six evaluation videos.
package tvq

import (
	"fmt"
	"io"

	"tvq/internal/cnf"
	"tvq/internal/engine"
	"tvq/internal/query"
	"tvq/internal/snapshot"
	"tvq/internal/track"
	"tvq/internal/video"
	"tvq/internal/vr"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Query is a CNF count query with window and duration parameters.
	Query = cnf.Query
	// Condition is one `class θ n` atom of a query.
	Condition = cnf.Condition
	// Match is one query hit: an MCOS and the frames it appears in.
	Match = query.Match
	// Trace is a materialized object stream (the relation VR grouped by
	// frame).
	Trace = vr.Trace
	// Frame is one frame's object set.
	Frame = vr.Frame
	// FrameID numbers the frames of one feed, consecutively from 0.
	FrameID = vr.FrameID
	// Registry maps class names to compact class values.
	Registry = vr.Registry
	// Stats are per-trace dataset statistics (Table 6 of the paper).
	Stats = vr.Stats
	// Profile describes a synthetic dataset's statistical shape.
	Profile = video.Profile
	// Noise configures the simulated detector/tracker.
	Noise = track.Noise
	// Method selects the MCOS maintenance strategy.
	Method = engine.Method
	// WindowMode selects sliding or tumbling window semantics.
	WindowMode = engine.WindowMode
	// FrameResult pairs a frame with its matches in batch runs.
	FrameResult = engine.FrameResult
	// FeedID identifies one feed (camera) of a multi-feed session.
	FeedID = engine.FeedID
	// FeedFrame is one frame of one feed, Process's unit of ingestion.
	FeedFrame = engine.FeedFrame
	// FeedResult is one matching frame of a Process call, in ingestion
	// order.
	FeedResult = engine.FeedResult
	// ProcessStat is one window group's share of one processed frame,
	// delivered to WithObserver hooks.
	ProcessStat = engine.ProcessStat
	// ShardMode selects how a pooled session distributes work across
	// engines.
	ShardMode = engine.ShardMode
)

// MCOS maintenance strategies.
const (
	MethodNaive = engine.MethodNaive
	MethodMFS   = engine.MethodMFS
	MethodSSG   = engine.MethodSSG
)

// Window semantics.
const (
	Sliding  = engine.Sliding
	Tumbling = engine.Tumbling
)

// Pool sharding modes.
const (
	// ShardByFeed pins each feed to a worker — the multi-camera mode.
	ShardByFeed = engine.ShardByFeed
	// ShardByGroup partitions one feed's window groups across workers.
	ShardByGroup = engine.ShardByGroup
)

// SnapshotKind reports whether the snapshot in r holds an "engine", a
// "pool" or a "session", so callers with a bare file can tell what a
// snapshot holds without restoring it (Resume accepts all three). It
// consumes r and verifies the file framing (magic, version, checksum).
func SnapshotKind(r io.Reader) (string, error) {
	payload, err := snapshot.Read(r)
	if err != nil {
		return "", err
	}
	kind, _, err := snapshot.Kind(payload)
	if err != nil {
		return "", err
	}
	switch kind {
	case "engine", "pool":
		return kind, nil
	case payloadSession, payloadSessionV2:
		// One kind, two layouts: a disordered session appends its reorder
		// stage under its own tag.
		return payloadSession, nil
	}
	return "", fmt.Errorf("tvq: snapshot holds unknown state kind %q", kind)
}

// ParseQuery parses query text such as
//
//	car >= 2 AND (person <= 3 OR bus = 1)
//
// and attaches the query id, window size and duration threshold
// (both in frames).
func ParseQuery(id int, text string, window, duration int) (Query, error) {
	q, err := cnf.Parse(text)
	if err != nil {
		return Query{}, err
	}
	q.ID, q.Window, q.Duration = id, window, duration
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustQuery is ParseQuery that panics on error, for fixed literals.
func MustQuery(id int, text string, window, duration int) Query {
	q, err := ParseQuery(id, text, window, duration)
	if err != nil {
		panic(err)
	}
	return q
}

// StandardRegistry returns a registry with the classes the paper's
// experiments detect: person, car, truck, bus.
func StandardRegistry() *Registry { return vr.StandardRegistry() }

// NewRegistry returns a registry pre-populated with the given classes.
func NewRegistry(names ...string) *Registry { return vr.NewRegistry(names...) }

// Datasets returns the six dataset profiles of the paper's evaluation
// (Table 6): V1, V2 (VisualRoad), D1, D2 (Detrac), M1, M2 (MOT16).
func Datasets() []Profile { return video.StandardProfiles() }

// DatasetByName looks up one of the standard profiles by name.
func DatasetByName(name string) (Profile, bool) { return video.ProfileByName(name) }

// GenerateDataset synthesizes an object stream with the statistical shape
// of the profile, runs it through the simulated detector/tracker with the
// given noise, and returns the extracted trace. Classes are registered in
// reg. Deterministic in (profile, seed, noise).
func GenerateDataset(p Profile, seed int64, noise Noise, reg *Registry) (*Trace, error) {
	sc, err := video.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	return track.Detect(sc, reg, noise)
}

// InjectOcclusions applies the paper's occlusion parameter po: object
// identifiers are reused across disjoint object lifetimes (same class) up
// to po times each, increasing occlusion counts per identifier.
func InjectOcclusions(t *Trace, po int, seed int64) *Trace {
	return video.ReuseIDs(t, po, seed)
}

// ComputeStats derives the Table 6 statistics of a trace.
func ComputeStats(t *Trace) Stats { return vr.ComputeStats(t) }

// NewTraceFromTuples builds a trace from relation rows (fid, id, class).
func NewTraceFromTuples(tuples []Tuple) (*Trace, error) { return vr.NewTrace(tuples) }

// Tuple is one row of the structured relation VR(fid, id, class).
type Tuple = vr.Tuple

// ReadTraceCSV decodes a trace from CSV with header "fid,id,class".
func ReadTraceCSV(r io.Reader, reg *Registry) (*Trace, error) { return vr.ReadCSV(r, reg) }

// WriteTraceCSV encodes a trace as CSV.
func WriteTraceCSV(w io.Writer, t *Trace, reg *Registry) error { return vr.WriteCSV(w, t, reg) }

// ReadTraceJSONL decodes a trace from JSON Lines (one frame per line).
func ReadTraceJSONL(r io.Reader, reg *Registry) (*Trace, error) { return vr.JSONL.ReadTrace(r, reg) }

// WriteTraceJSONL encodes a trace as JSON Lines.
func WriteTraceJSONL(w io.Writer, t *Trace, reg *Registry) error {
	return vr.JSONL.WriteTrace(w, t, reg)
}

// ReadTraceBinary decodes a trace from the binary wire format (see the
// README's wire-protocol section).
func ReadTraceBinary(r io.Reader, reg *Registry) (*Trace, error) {
	return vr.Binary.ReadTrace(r, reg)
}

// WriteTraceBinary encodes a trace in the binary wire format — the same
// frames as JSONL in a fraction of the bytes.
func WriteTraceBinary(w io.Writer, t *Trace, reg *Registry) error {
	return vr.Binary.WriteTrace(w, t, reg)
}

// Codec is a frame-stream encoding: JSONL (text, line-oriented) or
// Binary (length-prefixed records, delta-encoded sets). Both sides of
// the wire agree on a codec by name (CLI flags) or MIME type (HTTP
// Content-Type).
type Codec = vr.Codec

// FrameReader streams frames out of an encoded stream; Next returns
// io.EOF at a clean end of stream. Frames decoded from the binary
// format arrive with Frame.Owned set: their storage belongs to the
// consumer, and the processing layers retain them without a copy.
type FrameReader = vr.FrameReader

// FrameWriter streams frames into an encoded stream; call Flush once
// after the last frame.
type FrameWriter = vr.FrameWriter

// The two wire codecs.
var (
	// JSONLCodec is the line-oriented text format: one
	// {"fid":..,"objects":[..]} object per line. Decoded frames are
	// borrowed (cloned on retain).
	JSONLCodec Codec = vr.JSONL
	// BinaryCodec is the length-prefixed binary format
	// (application/x-tvq-frames). Decoded frames transfer ownership.
	BinaryCodec Codec = vr.Binary
)

// Codecs lists every wire codec.
func Codecs() []Codec { return vr.Codecs() }

// CodecByName resolves a codec by short name ("jsonl", "binary").
func CodecByName(name string) (Codec, bool) { return vr.CodecByName(name) }

// CodecByContentType resolves a codec by MIME type, ignoring
// parameters; it accepts common JSONL aliases (application/x-ndjson,
// application/jsonl, application/json).
func CodecByContentType(contentType string) (Codec, bool) {
	return vr.CodecByContentType(contentType)
}

// FormatMatch renders a match in a human-readable single line.
func FormatMatch(m Match) string {
	frames := m.Frames
	if len(frames) == 0 {
		return fmt.Sprintf("q%d: %v (no frames)", m.QueryID, m.Objects)
	}
	return fmt.Sprintf("q%d: objects %v in %d frames [%d..%d]",
		m.QueryID, m.Objects, len(frames), frames[0], frames[len(frames)-1])
}
