package vr

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tvq/internal/objset"
)

// Trace file formats. The CSV codec writes a header row followed by one
// row per tuple with the class *name* resolved through a Registry, so
// files are self-describing and diffable. The JSONL and binary codecs
// implement the Codec interface: one frame per unit (a JSON line, a
// length-prefixed record), which is the natural shape for streaming
// consumers — network ingest and cmd/tvq -stream decode frame by frame
// and never hold a full trace.

// Codec is one frame wire format: a short name for CLI flags, a MIME
// type for HTTP content negotiation, streaming per-frame readers and
// writers, and whole-trace convenience wrappers built on them. Two
// codecs exist: JSONL (line-delimited JSON, the debuggable fallback)
// and Binary (the length-prefixed binary wire protocol).
type Codec interface {
	// Name is the codec's short name ("jsonl", "binary"), used by CLI
	// flags and to derive file extensions.
	Name() string
	// ContentType is the canonical MIME type for HTTP negotiation.
	ContentType() string
	// NewFrameReader returns a streaming decoder over r; Next yields
	// frames one at a time and reports io.EOF at a clean end of
	// stream. Unknown class names are registered in reg.
	NewFrameReader(r io.Reader, reg *Registry) FrameReader
	// NewFrameWriter returns a streaming encoder over w; the caller
	// must call Flush once after the last frame.
	NewFrameWriter(w io.Writer, reg *Registry) FrameWriter
	// ReadTrace decodes a whole trace: frames are densified from 0 to
	// the maximum frame id seen, exactly like NewTrace.
	ReadTrace(r io.Reader, reg *Registry) (*Trace, error)
	// WriteTrace encodes a whole trace.
	WriteTrace(w io.Writer, t *Trace, reg *Registry) error
}

// FrameReader decodes frames one at a time. Next returns io.EOF at a
// clean end of stream; any other error is terminal (further calls
// return the same error). Whether the returned frames are owned or
// borrowed is a per-codec contract — see Frame.Owned: the binary
// reader allocates fresh storage per frame and marks frames Owned; the
// JSONL reader leaves them borrowed (the conservative default).
type FrameReader interface {
	Next() (Frame, error)
}

// FrameWriter encodes frames one at a time. Writers may buffer; Flush
// must be called once after the last frame (it also materializes the
// stream header when no frames were written, so an empty stream still
// round-trips).
type FrameWriter interface {
	WriteFrame(f Frame) error
	Flush() error
}

// The two codec instances. Both are stateless and safe to share.
var (
	// JSONL is the line-delimited JSON codec: one
	// {"fid":..,"objects":[{"id":..,"class":".."}]} object per frame.
	JSONL Codec = jsonlCodec{}
	// Binary is the length-prefixed binary codec; see binary.go for
	// the format.
	Binary Codec = binaryCodec{}
)

// Codecs returns all codecs, JSONL first.
func Codecs() []Codec { return []Codec{JSONL, Binary} }

// CodecByName resolves a codec by its short name.
func CodecByName(name string) (Codec, bool) {
	for _, c := range Codecs() {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// CodecByContentType resolves a codec from a MIME type, ignoring
// parameters ("; charset=..."). Besides the canonical types it accepts
// the common JSONL aliases application/jsonl and application/json.
// The empty string resolves to nothing — defaulting is the caller's
// policy, not the codec registry's.
func CodecByContentType(contentType string) (Codec, bool) {
	mt := contentType
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	mt = strings.ToLower(strings.TrimSpace(mt))
	switch mt {
	case JSONL.ContentType(), "application/jsonl", "application/json":
		return JSONL, true
	case Binary.ContentType():
		return Binary, true
	}
	return nil, false
}

// readTraceFrom drains a FrameReader into a densified Trace: frames are
// materialized from 0 to the maximum frame id seen (ids absent from the
// stream become empty frames), per-frame class maps are merged into one
// feed-wide table, and conflicting classes for one object id are
// rejected as corrupt input. Frame ids must be strictly increasing —
// trace files are canonical artifacts, and a disordered one is rejected
// with a DisorderedError (the streaming FrameReaders stay order-
// agnostic; bounded live disorder is the reorder stage's job).
func readTraceFrom(fr FrameReader) (*Trace, error) {
	classes := make(map[objset.ID]Class)
	perFrame := make(map[FrameID][]objset.ID)
	maxFID := FrameID(-1)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if f.FID < 0 {
			return nil, fmt.Errorf("vr: negative frame id %d", f.FID)
		}
		if f.FID >= MaxTraceFrames {
			return nil, fmt.Errorf("vr: frame id %d exceeds MaxTraceFrames (%d)", f.FID, MaxTraceFrames)
		}
		if f.FID <= maxFID {
			return nil, &DisorderedError{Prev: maxFID, FID: f.FID}
		}
		maxFID = f.FID
		var conflict error
		f.Objects.Range(func(id objset.ID) bool {
			c := f.Classes[id]
			if prev, ok := classes[id]; ok && prev != c {
				conflict = fmt.Errorf("vr: object %d has conflicting classes %d and %d", id, prev, c)
				return false
			}
			classes[id] = c
			perFrame[f.FID] = append(perFrame[f.FID], id)
			return true
		})
		if conflict != nil {
			return nil, conflict
		}
	}
	tr := &Trace{classes: classes}
	for fid := FrameID(0); fid <= maxFID; fid++ {
		tr.frames = append(tr.frames, Frame{
			FID:     fid,
			Objects: objset.New(perFrame[fid]...),
			Classes: classes,
		})
	}
	return tr, nil
}

// writeTraceTo streams every frame of t through fw and flushes.
func writeTraceTo(fw FrameWriter, t *Trace) error {
	for _, f := range t.Frames() {
		if err := fw.WriteFrame(f); err != nil {
			return err
		}
	}
	return fw.Flush()
}

// WriteCSV encodes the trace as CSV with header "fid,id,class": one row
// per detection, and an empty-frame row "fid,," for a trailing empty last
// frame, which no detection row would carry (frames before the last need
// none: a trace holds every frame up to its last one).
func WriteCSV(w io.Writer, t *Trace, reg *Registry) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"fid", "id", "class"}); err != nil {
		return fmt.Errorf("vr: write csv header: %w", err)
	}
	for _, tup := range t.Tuples() {
		name := reg.Name(tup.Class)
		if name == "" {
			return fmt.Errorf("vr: class %d not in registry", tup.Class)
		}
		rec := []string{
			strconv.FormatInt(tup.FID, 10),
			strconv.FormatUint(uint64(tup.ID), 10),
			name,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("vr: write csv row: %w", err)
		}
	}
	if n := t.Len(); n > 0 && t.Frame(n-1).Objects.IsEmpty() {
		if err := cw.Write([]string{strconv.Itoa(n - 1), "", ""}); err != nil {
			return fmt.Errorf("vr: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV. Unknown class names are
// registered in reg as they are encountered. An empty-frame row "fid,,"
// extends the trace to frame fid and adds no detection.
func ReadCSV(r io.Reader, reg *Registry) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("vr: read csv header: %w", err)
	}
	if header[0] != "fid" || header[1] != "id" || header[2] != "class" {
		return nil, fmt.Errorf("vr: unexpected csv header %v", header)
	}
	var tuples []Tuple
	lastEmpty := FrameID(-1) // the highest frame an empty-frame row names
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("vr: read csv row: %w", err)
		}
		fid, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("vr: bad fid %q: %w", rec[0], err)
		}
		if rec[1] == "" && rec[2] == "" {
			if fid < 0 || fid >= MaxTraceFrames {
				return nil, fmt.Errorf("vr: empty frame id %d outside [0, %d)", fid, MaxTraceFrames)
			}
			lastEmpty = max(lastEmpty, fid)
			continue
		}
		id, err := strconv.ParseUint(rec[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("vr: bad id %q: %w", rec[1], err)
		}
		if rec[2] == "" {
			// The writers render "unknown class" as an empty name, so an
			// empty name in a file is unrepresentable output: corrupt input.
			return nil, fmt.Errorf("vr: empty class name for object %d in frame %s", id, rec[0])
		}
		tuples = append(tuples, Tuple{
			FID:   fid,
			ID:    uint32(id),
			Class: reg.Class(rec[2]),
		})
	}
	tr, err := NewTrace(tuples)
	if err != nil {
		return nil, err
	}
	for fid := FrameID(tr.Len()); fid <= lastEmpty; fid++ {
		tr.frames = append(tr.frames, Frame{FID: fid, Objects: objset.New(), Classes: tr.classes})
	}
	return tr, nil
}

// jsonFrame is the JSONL wire format: one frame per line.
type jsonFrame struct {
	FID     int64             `json:"fid"`
	Objects []jsonObject      `json:"objects"`
	Extra   map[string]string `json:"extra,omitempty"`
}

type jsonObject struct {
	ID    uint32 `json:"id"`
	Class string `json:"class"`
}

// jsonlCodec is the line-delimited JSON implementation of Codec.
type jsonlCodec struct{}

func (jsonlCodec) Name() string        { return "jsonl" }
func (jsonlCodec) ContentType() string { return "application/x-ndjson" }

func (jsonlCodec) NewFrameReader(r io.Reader, reg *Registry) FrameReader {
	return &jsonlFrameReader{dec: json.NewDecoder(r), reg: reg}
}

func (jsonlCodec) NewFrameWriter(w io.Writer, reg *Registry) FrameWriter {
	bw := bufio.NewWriter(w)
	return &jsonlFrameWriter{bw: bw, enc: json.NewEncoder(bw), reg: reg}
}

func (c jsonlCodec) ReadTrace(r io.Reader, reg *Registry) (*Trace, error) {
	return readTraceFrom(c.NewFrameReader(r, reg))
}

func (c jsonlCodec) WriteTrace(w io.Writer, t *Trace, reg *Registry) error {
	return writeTraceTo(c.NewFrameWriter(w, reg), t)
}

// jsonlFrameReader streams frames from a JSON decoder. The decoder
// accepts whitespace (including blank lines) between objects, so the
// reader handles both strict one-object-per-line input and concatenated
// JSON values.
type jsonlFrameReader struct {
	dec *json.Decoder
	reg *Registry
	err error
}

func (r *jsonlFrameReader) Next() (Frame, error) {
	if r.err != nil {
		return Frame{}, r.err
	}
	var jf jsonFrame
	if err := r.dec.Decode(&jf); err == io.EOF {
		r.err = io.EOF
		return Frame{}, io.EOF
	} else if err != nil {
		r.err = fmt.Errorf("vr: decode frame: %w", err)
		return Frame{}, r.err
	}
	f, err := frameFromJSON(jf, r.reg)
	if err != nil {
		r.err = err
	}
	return f, err
}

// jsonlFrameWriter streams frames through a buffered JSON encoder.
type jsonlFrameWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	reg *Registry
}

func (w *jsonlFrameWriter) WriteFrame(f Frame) error {
	jf := jsonFrame{FID: f.FID}
	var nameErr error
	f.Objects.Range(func(id objset.ID) bool {
		name := w.reg.Name(f.Classes[id])
		if name == "" {
			nameErr = fmt.Errorf("vr: class %d not in registry", f.Classes[id])
			return false
		}
		jf.Objects = append(jf.Objects, jsonObject{ID: id, Class: name})
		return true
	})
	if nameErr != nil {
		return nameErr
	}
	if err := w.enc.Encode(jf); err != nil {
		return fmt.Errorf("vr: encode frame %d: %w", f.FID, err)
	}
	return nil
}

func (w *jsonlFrameWriter) Flush() error { return w.bw.Flush() }

// frameFromJSON validates and converts one decoded jsonFrame.
func frameFromJSON(jf jsonFrame, reg *Registry) (Frame, error) {
	if jf.FID < 0 {
		return Frame{}, fmt.Errorf("vr: negative frame id %d", jf.FID)
	}
	f := Frame{FID: jf.FID}
	if len(jf.Objects) == 0 {
		return f, nil
	}
	ids := make([]objset.ID, 0, len(jf.Objects))
	f.Classes = make(map[objset.ID]Class, len(jf.Objects))
	for _, o := range jf.Objects {
		if o.Class == "" {
			return Frame{}, fmt.Errorf("vr: empty class name for object %d in frame %d", o.ID, jf.FID)
		}
		c := reg.Class(o.Class)
		if prev, ok := f.Classes[o.ID]; ok {
			if prev != c {
				return Frame{}, fmt.Errorf("vr: object %d has classes %q and %q in frame %d", o.ID, reg.Name(prev), o.Class, jf.FID)
			}
			continue
		}
		f.Classes[o.ID] = c
		ids = append(ids, o.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	f.Objects = objset.FromSorted(ids)
	return f, nil
}
