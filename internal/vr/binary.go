package vr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tvq/internal/objset"
)

// The binary wire protocol: a self-describing, length-prefixed record
// stream in the spirit of restic's pack files. The layout is
//
//	stream   := "TVQF" version(1 byte, = 1) record*
//	record   := uvarint(len(body)) body
//	body     := kind(1 byte) payload
//	classdef := 0x01 name-bytes            (stream index assigned 0,1,2,…)
//	frame    := 0x02 uvarint(fid) set classidx*
//	set      := uvarint(n) uvarint(id₀) uvarint(id₁-id₀) … uvarint(idₙ₋₁-idₙ₋₂)
//	classidx := uvarint                    (one per object, in id order)
//
// Class names travel once, in classdef records emitted lazily before
// the first frame that uses them; frames then refer to classes by their
// small stream index. Object ids are strictly increasing within a
// frame, so they delta-encode into mostly single-byte varints. Empty
// frames are one record of three bytes — no sentinel needed.
//
// Decoding never panics: truncation mid-stream reports ErrTruncated and
// structural violations report *CorruptError with the byte offset, so
// network ingest can map both onto a 400 and fuzzing can assert the
// error taxonomy.

const (
	binaryMagic   = "TVQF"
	binaryVersion = 1

	recClassDef = 0x01
	recFrame    = 0x02

	// maxBinaryRecord caps one record's declared length so a corrupted
	// or hostile length prefix cannot demand an absurd allocation. A
	// record is one frame; 16 MiB is orders of magnitude above any real
	// per-frame object set.
	maxBinaryRecord = 16 << 20
)

// ErrTruncated reports a binary stream that ends mid-header or
// mid-record. A clean end of stream (at a record boundary) is io.EOF.
var ErrTruncated = errors.New("vr: truncated binary stream")

// CorruptError reports structurally invalid binary wire data: bad
// magic, an impossible length, object ids out of order, a class index
// with no classdef, and so on. Offset is the byte position (from the
// start of the stream, or of the buffer handed to DecodeSet) at which
// the violation was detected.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("vr: corrupt binary stream at byte %d: %s", e.Offset, e.Reason)
}

func corruptf(off int64, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// AppendSet appends s to dst in the binary wire encoding: the element
// count, then the ascending object ids delta-encoded as uvarints (the
// first id absolute, every later id as its positive distance from the
// predecessor). The encoding is representation-independent — sparse and
// dense sets with the same members encode identically — and is shared
// by the frame codec and the engine's checkpoint payloads.
func AppendSet(dst []byte, s objset.Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	prev := objset.ID(0)
	first := true
	s.Range(func(id objset.ID) bool {
		if first {
			dst = binary.AppendUvarint(dst, uint64(id))
			first = false
		} else {
			dst = binary.AppendUvarint(dst, uint64(id-prev))
		}
		prev = id
		return true
	})
	return dst
}

// DecodeSet decodes an AppendSet encoding from the front of data,
// returning the set (freshly allocated, in compact representation) and
// the number of bytes consumed. Malformed input — including input that
// ends before the declared count is satisfied — returns a
// *CorruptError with an offset relative to data.
func DecodeSet(data []byte) (objset.Set, int, error) {
	ids, n, err := AppendSetIDs(nil, data)
	if err != nil {
		return objset.Set{}, 0, err
	}
	return objset.Compact(objset.FromSorted(ids)), n, nil
}

// AppendSetIDs is DecodeSet for a caller that builds the set itself: it
// appends the decoded ids, strictly increasing, to dst and returns the
// extended slice and the number of bytes consumed. It makes the same
// checks, with the same errors, and grows dst at most once, after the
// count has been checked against the bytes left.
func AppendSetIDs(dst []objset.ID, data []byte) ([]objset.ID, int, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return dst, 0, corruptf(0, "truncated or malformed set count")
	}
	if n == 0 {
		return dst, sz, nil
	}
	// Each id occupies at least one encoded byte, so a count that cannot
	// fit in the remaining bytes is rejected before any allocation.
	if n > uint64(len(data)-sz) {
		return dst, 0, corruptf(int64(sz), "set count %d exceeds %d remaining bytes", n, len(data)-sz)
	}
	if cap(dst)-len(dst) < int(n) {
		// A fresh set gets room for exactly its ids: slices.Grow would
		// round a one-id set up to two, 8 bytes where 4 do. A reused
		// buffer doubles.
		dst = append(make([]objset.ID, 0, max(len(dst)+int(n), 2*cap(dst))), dst...)
	}
	off := sz
	var prev uint64
	for i := uint64(0); i < n; i++ {
		v, m := binary.Uvarint(data[off:])
		if m <= 0 {
			return dst, 0, corruptf(int64(off), "truncated or malformed object id delta")
		}
		if i == 0 {
			if v > math.MaxUint32 {
				return dst, 0, corruptf(int64(off), "object id %d overflows uint32", v)
			}
			prev = v
		} else {
			if v == 0 {
				return dst, 0, corruptf(int64(off), "zero id delta: object ids must be strictly increasing")
			}
			if v > math.MaxUint32-prev {
				return dst, 0, corruptf(int64(off), "object id %d+%d overflows uint32", prev, v)
			}
			prev += v
		}
		dst = append(dst, objset.ID(prev))
		off += m
	}
	return dst, off, nil
}

// binaryCodec is the length-prefixed binary implementation of Codec.
type binaryCodec struct{}

func (binaryCodec) Name() string        { return "binary" }
func (binaryCodec) ContentType() string { return "application/x-tvq-frames" }

func (binaryCodec) NewFrameReader(r io.Reader, reg *Registry) FrameReader {
	return &binaryFrameReader{r: bufio.NewReader(r), reg: reg}
}

func (binaryCodec) NewFrameWriter(w io.Writer, reg *Registry) FrameWriter {
	return &binaryFrameWriter{bw: bufio.NewWriter(w), reg: reg, classIdx: make(map[Class]uint64)}
}

func (c binaryCodec) ReadTrace(r io.Reader, reg *Registry) (*Trace, error) {
	return readTraceFrom(c.NewFrameReader(r, reg))
}

func (c binaryCodec) WriteTrace(w io.Writer, t *Trace, reg *Registry) error {
	return writeTraceTo(c.NewFrameWriter(w, reg), t)
}

// binaryFrameReader streams frames from a binary record stream. Every
// frame it returns is marked Owned: its object set and class map are
// freshly allocated per frame and nothing in the reader aliases them,
// so the consumer may retain them without copying.
type binaryFrameReader struct {
	r       *bufio.Reader
	reg     *Registry
	classes []Class // stream class index → registry class
	body    []byte  // reusable record buffer (copied out of, never retained)
	off     int64   // bytes consumed, for error offsets
	started bool
	err     error // sticky: io.EOF or the first failure
}

func (fr *binaryFrameReader) Next() (Frame, error) {
	if fr.err != nil {
		return Frame{}, fr.err
	}
	f, err := fr.next()
	if err != nil {
		fr.err = err
	}
	return f, err
}

func (fr *binaryFrameReader) next() (Frame, error) {
	if !fr.started {
		var hdr [len(binaryMagic) + 1]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			return Frame{}, fmt.Errorf("%w: missing stream header", ErrTruncated)
		}
		if string(hdr[:len(binaryMagic)]) != binaryMagic {
			return Frame{}, corruptf(0, "bad magic %q: not a tvq binary frame stream", hdr[:len(binaryMagic)])
		}
		if hdr[len(binaryMagic)] != binaryVersion {
			return Frame{}, corruptf(int64(len(binaryMagic)), "unsupported format version %d (this build reads version %d)", hdr[len(binaryMagic)], binaryVersion)
		}
		fr.off = int64(len(hdr))
		fr.started = true
	}
	for {
		length, err := binary.ReadUvarint(fr.r)
		if err == io.EOF {
			return Frame{}, io.EOF // clean record boundary
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				return Frame{}, fmt.Errorf("%w: partial record length at byte %d", ErrTruncated, fr.off)
			}
			return Frame{}, corruptf(fr.off, "record length: %v", err)
		}
		recStart := fr.off
		fr.off += int64(uvarintLen(length))
		if length == 0 {
			return Frame{}, corruptf(recStart, "empty record")
		}
		if length > maxBinaryRecord {
			return Frame{}, corruptf(recStart, "record length %d exceeds limit %d", length, maxBinaryRecord)
		}
		if uint64(cap(fr.body)) < length {
			fr.body = make([]byte, length)
		}
		body := fr.body[:length]
		if _, err := io.ReadFull(fr.r, body); err != nil {
			return Frame{}, fmt.Errorf("%w: record at byte %d declares %d body bytes", ErrTruncated, recStart, length)
		}
		bodyStart := fr.off
		fr.off += int64(length)
		switch body[0] {
		case recClassDef:
			name := string(body[1:])
			if name == "" {
				return Frame{}, corruptf(bodyStart, "empty class name in classdef record")
			}
			fr.classes = append(fr.classes, fr.reg.Class(name))
			continue
		case recFrame:
			return fr.decodeFrame(body[1:], bodyStart+1)
		default:
			return Frame{}, corruptf(bodyStart, "unknown record kind %#x", body[0])
		}
	}
}

// decodeFrame parses one frame record body (kind byte already
// stripped); base is its stream offset for error reporting.
func (fr *binaryFrameReader) decodeFrame(body []byte, base int64) (Frame, error) {
	fid, n := binary.Uvarint(body)
	if n <= 0 {
		return Frame{}, corruptf(base, "truncated or malformed frame id")
	}
	if fid > math.MaxInt64 {
		return Frame{}, corruptf(base, "frame id %d overflows int64", fid)
	}
	set, m, err := DecodeSet(body[n:])
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Offset += base + int64(n)
		}
		return Frame{}, err
	}
	rest := body[n+m:]
	f := Frame{FID: FrameID(fid), Objects: set, Owned: true}
	if set.Len() == 0 {
		if len(rest) != 0 {
			return Frame{}, corruptf(base+int64(n+m), "%d trailing bytes after empty frame", len(rest))
		}
		return f, nil
	}
	f.Classes = make(map[objset.ID]Class, set.Len())
	off := 0
	var idxErr error
	set.Range(func(id objset.ID) bool {
		idx, k := binary.Uvarint(rest[off:])
		if k <= 0 {
			idxErr = corruptf(base+int64(n+m+off), "truncated or malformed class index")
			return false
		}
		if idx >= uint64(len(fr.classes)) {
			idxErr = corruptf(base+int64(n+m+off), "class index %d has no preceding classdef (have %d)", idx, len(fr.classes))
			return false
		}
		f.Classes[id] = fr.classes[idx]
		off += k
		return true
	})
	if idxErr != nil {
		return Frame{}, idxErr
	}
	if off != len(rest) {
		return Frame{}, corruptf(base+int64(n+m+off), "%d trailing bytes after frame record", len(rest)-off)
	}
	return f, nil
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// binaryFrameWriter streams frames as binary records, emitting a
// classdef record the first time each class appears.
type binaryFrameWriter struct {
	bw       *bufio.Writer
	reg      *Registry
	classIdx map[Class]uint64 // registry class → stream index
	buf      []byte           // reusable record-body scratch
	// pfx is the record-length scratch. A local array would escape:
	// bufio.Writer may pass a slice of it on to the io.Writer beneath.
	pfx     [binary.MaxVarintLen64]byte
	started bool
}

func (fw *binaryFrameWriter) header() error {
	if fw.started {
		return nil
	}
	fw.started = true
	if _, err := fw.bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("vr: write binary header: %w", err)
	}
	if err := fw.bw.WriteByte(binaryVersion); err != nil {
		return fmt.Errorf("vr: write binary header: %w", err)
	}
	return nil
}

// writeRecord emits one length-prefixed record.
func (fw *binaryFrameWriter) writeRecord(body []byte) error {
	n := binary.PutUvarint(fw.pfx[:], uint64(len(body)))
	if _, err := fw.bw.Write(fw.pfx[:n]); err != nil {
		return fmt.Errorf("vr: write record: %w", err)
	}
	if _, err := fw.bw.Write(body); err != nil {
		return fmt.Errorf("vr: write record: %w", err)
	}
	return nil
}

func (fw *binaryFrameWriter) WriteFrame(f Frame) error {
	if f.FID < 0 {
		return fmt.Errorf("vr: negative frame id %d", f.FID)
	}
	if err := fw.header(); err != nil {
		return err
	}
	// First pass: make sure every class the frame references has a
	// stream index, emitting classdef records for new ones.
	var defErr error
	f.Objects.Range(func(id objset.ID) bool {
		c := f.Classes[id]
		if _, ok := fw.classIdx[c]; ok {
			return true
		}
		name := fw.reg.Name(c)
		if name == "" {
			defErr = fmt.Errorf("vr: class %d not in registry", c)
			return false
		}
		fw.buf = append(fw.buf[:0], recClassDef)
		fw.buf = append(fw.buf, name...)
		if defErr = fw.writeRecord(fw.buf); defErr != nil {
			return false
		}
		fw.classIdx[c] = uint64(len(fw.classIdx))
		return true
	})
	if defErr != nil {
		return defErr
	}
	// Second pass: the frame record itself.
	body := append(fw.buf[:0], recFrame)
	body = binary.AppendUvarint(body, uint64(f.FID))
	body = AppendSet(body, f.Objects)
	f.Objects.Range(func(id objset.ID) bool {
		body = binary.AppendUvarint(body, fw.classIdx[f.Classes[id]])
		return true
	})
	fw.buf = body
	return fw.writeRecord(body)
}

func (fw *binaryFrameWriter) Flush() error {
	if err := fw.header(); err != nil {
		return err
	}
	if err := fw.bw.Flush(); err != nil {
		return fmt.Errorf("vr: flush binary stream: %w", err)
	}
	return nil
}
