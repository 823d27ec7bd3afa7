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
// encoders). A Writer frames containers where it writes them
// (Begin/End), nested ones included (BeginBlob/EndBlob), and Parse
// checks them where they lie, so neither direction copies a payload to
// frame or unframe it.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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

// trustedSize is the largest file Read allocates in one piece on its
// header's word alone; a larger one grows as its bytes arrive, so a
// corrupted length costs at most this much beyond the bytes there.
const trustedSize = 16 << 20

const headerSize = 20

// Writer accumulates a snapshot payload, or whole snapshot files when
// Begin and End frame it. The zero value is ready to use.
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

// AppendWith hands the payload buffer to an append-style encoder (such
// as vr.AppendSet) and adopts what it returns, so shared wire
// primitives write straight into the payload with no intermediate
// allocation. fn must only append.
func (w *Writer) AppendWith(fn func(dst []byte) []byte) {
	w.buf = fn(w.buf)
}

// Reset empties the writer and keeps its buffer for the next snapshot.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Begin opens a container at the end of the buffer by reserving its
// header, and returns the mark End closes it at. Everything written in
// between is the container's payload, framed in place: no payload is
// copied to be framed.
func (w *Writer) Begin() int {
	at := len(w.buf)
	w.buf = append(w.buf, make([]byte, headerSize)...)
	return at
}

// End closes the container Begin opened at mark: it fills in the header
// and appends the payload's checksum.
func (w *Writer) End(mark int) {
	hdr, payload := w.buf[mark:mark+headerSize], w.buf[mark+headerSize:]
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	w.buf = append(w.buf, sum[:]...)
}

// BeginBlob opens a length-prefixed byte string whose length is not
// known yet, such as a nested container, by reserving the longest
// prefix; EndBlob writes the prefix and closes the gap. The bytes are
// a String's, and Reader.Blob reads them.
func (w *Writer) BeginBlob() int {
	at := len(w.buf)
	w.buf = append(w.buf, make([]byte, binary.MaxVarintLen64)...)
	return at
}

// EndBlob closes the blob BeginBlob opened at mark, moving its bytes
// back over the part of the reserved prefix the length does not need.
func (w *Writer) EndBlob(mark int) {
	body := mark + binary.MaxVarintLen64
	n := binary.PutUvarint(w.buf[mark:body], uint64(len(w.buf)-body))
	w.buf = w.buf[:mark+n+copy(w.buf[mark+n:], w.buf[body:])]
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

// Blob reads a length-prefixed byte slice written by Writer.String or
// between Writer.BeginBlob and EndBlob, returning a subslice of the
// payload without copying. The caller must not modify it.
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

// Read consumes one snapshot file from r and returns its verified
// payload. It reads the header first and refuses a bad magic, version
// or declared length before reading further; then it reads the rest
// into the one buffer the header sizes, at most one byte beyond the
// checksum, and Parse checks it in place. Every failure mode returns a
// descriptive error.
func Read(r io.Reader) ([]byte, error) {
	file := make([]byte, headerSize)
	if _, err := io.ReadFull(r, file); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	length, err := parseHeader(file)
	if err != nil {
		return nil, err
	}
	// One byte more than the file is asked for, to tell a trailing byte
	// from the end.
	want := headerSize + int(length) + sha256.Size + 1
	file = append(make([]byte, 0, min(want, trustedSize)), file...)
	for len(file) < want {
		if len(file) == cap(file) {
			file = slices.Grow(file, min(want-len(file), len(file)))
		}
		n, err := r.Read(file[len(file):min(want, cap(file))])
		file = file[:len(file)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot: read payload: %w", err)
		}
	}
	return Parse(file)
}

// Parse verifies the snapshot file in data — magic, version, declared
// length and checksum — and returns its payload, a subslice of data: a
// nested container is checked where it lies, without a copy.
func Parse(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("snapshot: truncated header: have %d of %d bytes", len(data), headerSize)
	}
	length, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	rest := data[headerSize:]
	if uint64(len(rest)) < length+sha256.Size {
		return nil, fmt.Errorf("snapshot: truncated file: have %d payload bytes, header declares %d", len(rest), length)
	}
	if uint64(len(rest)) > length+sha256.Size {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after checksum; file is corrupted", uint64(len(rest))-length-sha256.Size)
	}
	payload := rest[:length]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], rest[length:]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch: file is corrupted")
	}
	return payload, nil
}

// Kind opens a payload this module wrote, which always starts with a
// kind tag (a String): it returns the tag and a Reader positioned after
// it.
func Kind(payload []byte) (string, *Reader, error) {
	sr := NewReader(payload)
	kind := sr.String()
	return kind, sr, sr.Err()
}

// parseHeader checks a file's magic and version and returns the payload
// length it declares, refusing one above maxPayload.
func parseHeader(hdr []byte) (uint64, error) {
	if string(hdr[:8]) != magic {
		return 0, fmt.Errorf("snapshot: bad magic %q: not a tvq snapshot file", hdr[:8])
	}
	if version := binary.LittleEndian.Uint32(hdr[8:12]); version != Version {
		return 0, fmt.Errorf("snapshot: format version %d not supported (this build reads version %d)", version, Version)
	}
	length := binary.LittleEndian.Uint64(hdr[12:20])
	if length > maxPayload {
		return 0, fmt.Errorf("snapshot: declared payload length %d exceeds limit %d; file is corrupted", length, maxPayload)
	}
	return length, nil
}
