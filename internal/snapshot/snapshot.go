// Package snapshot implements the wire format shared by every engine
// checkpoint: a compact binary payload framed by a magic string, a
// format version, and a SHA-256 checksum, in the spirit of restic's
// versioned, integrity-checked snapshot files. Higher layers (core
// generators, the engine, the pool) encode their own state with the
// Writer/Reader primitives here; this package owns only the framing and
// the promise that a corrupted or version-mismatched file produces a
// descriptive error, never a panic.
//
// File layout:
//
//	offset  size  field
//	0       8     magic "TVQSNAP\x00"
//	8       4     format version, uint32 little-endian
//	12      8     payload length, uint64 little-endian
//	20      n     payload (binary, see Writer)
//	20+n    32    SHA-256 of the payload
//
// The payload encoding uses varints for integers and length-prefixed
// byte strings, so snapshots are dense and byte-for-byte deterministic
// for a given engine state (maps are serialized in sorted order by the
// encoders).
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Version is the current snapshot format version. It is bumped on any
// incompatible layout change; Read rejects files written by a different
// version with a descriptive error (no cross-version migration is
// attempted — see the compatibility promise in the README).
//
// Version 2 switched object-set payloads to the delta encoding shared
// with the binary wire protocol (vr.AppendSet).
const Version = 2

const magic = "TVQSNAP\x00"

// maxPayload caps the declared payload length so a corrupted header
// cannot demand an absurd allocation. 1 GiB is orders of magnitude above
// any real engine state.
const maxPayload = 1 << 30

// Writer accumulates a snapshot payload. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	w.buf = binary.AppendUvarint(w.buf, x)
}

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(x int64) {
	w.buf = binary.AppendVarint(w.buf, x)
}

// Int appends a signed int.
func (w *Writer) Int(x int) { w.Varint(int64(x)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice without converting it to a
// string first; wire-compatible with String/Reader.Blob.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// AppendWith hands the payload buffer to an append-style encoder (such
// as vr.AppendSet) and adopts what it returns, so shared wire
// primitives write straight into the payload with no intermediate
// allocation. fn must only append.
func (w *Writer) AppendWith(fn func(dst []byte) []byte) {
	w.buf = fn(w.buf)
}

// Reader decodes a snapshot payload. Decoding errors are sticky: after
// the first failure every further read returns a zero value, and Err
// reports the first error. Callers check Err at section boundaries
// instead of after every read.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Fail records a decoding error from a higher-layer decoder (e.g. a
// violated structural invariant); like internal errors it is sticky and
// surfaces through Err.
func (r *Reader) Fail(format string, args ...any) {
	r.fail(format, args...)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return x
}

// Int reads a signed int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated payload: want bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("malformed bool %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.Remaining())
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Blob reads a length-prefixed byte slice written by Writer.Blob (or
// Writer.String — the encodings are identical), returning a subslice of
// the payload without copying. The caller must not modify it.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail("blob length %d exceeds remaining %d bytes", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Consume hands the unread payload to an incremental decoder (the
// counterpart of Writer.AppendWith, e.g. vr.DecodeSet) which returns
// how many bytes it consumed; its error, if any, becomes the reader's
// sticky error. After a prior failure the decoder is not invoked.
func (r *Reader) Consume(decode func(data []byte) (int, error)) {
	if r.err != nil {
		return
	}
	n, err := decode(r.buf[r.off:])
	if err != nil {
		r.fail("at offset %d: %v", r.off, err)
		return
	}
	if n < 0 || n > r.Remaining() {
		r.fail("decoder consumed impossible length %d of %d remaining", n, r.Remaining())
		return
	}
	r.off += n
}

// Count reads an element count and validates it against the remaining
// payload: each element occupies at least minBytes encoded bytes, so a
// count that could not possibly fit is rejected before any allocation.
// This keeps corrupted counts from provoking huge allocations or long
// loops.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.Remaining()/minBytes) {
		r.fail("count %d exceeds remaining payload (%d bytes)", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Write frames payload with the magic, version and checksum and writes
// the complete snapshot file to w.
func Write(w io.Writer, payload []byte) error {
	var hdr [20]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	for _, b := range [][]byte{hdr[:], payload, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("snapshot: write: %w", err)
		}
	}
	return nil
}

// Read consumes a complete snapshot file from r, verifies the magic,
// version, declared length and checksum, and returns the payload. Every
// failure mode returns a descriptive error.
func Read(r io.Reader) ([]byte, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q: not a tvq snapshot file", hdr[:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version {
		return nil, fmt.Errorf("snapshot: format version %d not supported (this build reads version %d)", version, Version)
	}
	length := binary.LittleEndian.Uint64(hdr[12:20])
	if length > maxPayload {
		return nil, fmt.Errorf("snapshot: declared payload length %d exceeds limit %d; file is corrupted", length, maxPayload)
	}
	// Read payload and checksum without trusting length for a single
	// huge allocation beyond the cap validated above.
	rest, err := io.ReadAll(io.LimitReader(r, int64(length)+sha256.Size+1))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read payload: %w", err)
	}
	if uint64(len(rest)) < length+sha256.Size {
		return nil, fmt.Errorf("snapshot: truncated file: have %d payload bytes, header declares %d", len(rest), length)
	}
	if uint64(len(rest)) > length+sha256.Size {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after checksum; file is corrupted", uint64(len(rest))-length-sha256.Size)
	}
	payload := rest[:length]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], rest[length:]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch: file is corrupted")
	}
	return payload, nil
}

// ReadKind is Read for the payloads this module writes, which all open
// with a kind tag (a String): it returns the tag and a Reader positioned
// after it.
func ReadKind(r io.Reader) (string, *Reader, error) {
	payload, err := Read(r)
	if err != nil {
		return "", nil, err
	}
	sr := NewReader(payload)
	kind := sr.String()
	return kind, sr, sr.Err()
}
