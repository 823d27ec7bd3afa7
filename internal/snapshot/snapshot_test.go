package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(1<<63 + 7)
	w.Varint(-12345)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("hello, 世界")

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+7 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "hello, 世界" {
		t.Errorf("String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReaderStickyErrors(t *testing.T) {
	r := NewReader(nil)
	if r.Uvarint() != 0 || r.Err() == nil {
		t.Fatal("read from empty payload did not error")
	}
	// Every further read stays zero-valued without panicking.
	_ = r.Varint()
	_ = r.Bool()
	_ = r.String()
	_ = r.Count(1)
	if r.Err() == nil {
		t.Fatal("error was not sticky")
	}
}

func TestCountRejectsOversize(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40) // claims a trillion elements in a tiny payload
	r := NewReader(w.Bytes())
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Fatalf("Count accepted bogus size: n=%d err=%v", n, r.Err())
	}
}

func TestStringRejectsOversize(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("String accepted bogus length: %q err=%v", s, r.Err())
	}
}

// frame wraps payload in a snapshot file.
func frame(payload []byte) []byte {
	var w Writer
	at := w.Begin()
	w.AppendWith(func(dst []byte) []byte { return append(dst, payload...) })
	w.End(at)
	return w.Bytes()
}

// layout builds a snapshot file field by field, as the package doc
// draws it.
func layout(payload []byte) []byte {
	out := []byte(magic)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

func TestFileRoundTrip(t *testing.T) {
	payload := []byte("engine state goes here")
	got, err := Read(bytes.NewReader(frame(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q", got)
	}
}

// TestFramingInPlace: containers framed where they are written, nested
// ones behind a length prefix whose size is known only at the end, lay
// out the bytes the documented layout has, and Parse finds both
// payloads where they lie. Inner sizes straddle every varint width a
// length takes up to 2 MiB.
func TestFramingInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 127 - 52, 128 - 52, 16383 - 52, 16384 - 52, 2097151 - 52, 2097152 - 52} {
		inner := bytes.Repeat([]byte{0xa5}, n)
		var w Writer
		w.String("stale") // Reset must drop it
		w.Reset()
		outer := w.Begin()
		w.String("outer")
		blob := w.BeginBlob()
		in := w.Begin()
		w.AppendWith(func(dst []byte) []byte { return append(dst, inner...) })
		w.End(in)
		w.EndBlob(blob)
		w.Bool(true)
		w.End(outer)

		var want Writer
		want.String("outer")
		want.String(string(layout(inner)))
		want.Bool(true)
		if !bytes.Equal(w.Bytes(), layout(want.Bytes())) {
			t.Fatalf("inner of %d bytes: framed in place to other bytes than the layout", n)
		}
		payload, err := Parse(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(payload)
		if r.String() != "outer" {
			t.Fatal("outer payload misread")
		}
		got, err := Parse(r.Blob())
		if err != nil || !bytes.Equal(got, inner) || !r.Bool() || r.Remaining() != 0 {
			t.Fatalf("inner of %d bytes: %v", n, err)
		}
	}
}

// countingReader yields data, then zeros without end, and counts what
// it hands out; past limit it fails, so a reader that does not stop
// ends anyway.
type countingReader struct {
	data  []byte
	read  int
	limit int
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.read >= c.limit {
		return 0, errors.New("read past the limit")
	}
	p = p[:min(len(p), c.limit-c.read)]
	n := copy(p, c.data[min(c.read, len(c.data)):])
	clear(p[n:])
	c.read += len(p)
	return len(p), nil
}

// TestReadStopsAtTheHeader: a header Read refuses is all it reads.
func TestReadStopsAtTheHeader(t *testing.T) {
	valid := frame([]byte("x"))
	for name, edit := range map[string]func(hdr []byte){
		"oversized length": func(hdr []byte) { binary.LittleEndian.PutUint64(hdr[12:20], 2<<30) },
		"bad magic":        func(hdr []byte) { hdr[0] ^= 0xff },
		"bad version":      func(hdr []byte) { hdr[8] = Version + 1 },
	} {
		hdr := slices.Clone(valid[:headerSize])
		edit(hdr)
		r := &countingReader{data: hdr, limit: 1 << 20}
		if _, err := Read(r); err == nil || r.read > headerSize {
			t.Errorf("%s: Read read %d bytes and returned %v", name, r.read, err)
		}
	}
}

// TestReadReadsOneBytePastTheFile: trailing bytes are found by reading
// one byte beyond the checksum, not by draining the reader.
func TestReadReadsOneBytePastTheFile(t *testing.T) {
	valid := frame([]byte("some payload bytes"))
	r := &countingReader{data: valid, limit: 1 << 20}
	if _, err := Read(r); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") || r.read != len(valid)+1 {
		t.Fatalf("read %d bytes of a %d-byte file and endless zeros: %v", r.read, len(valid), err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	b := frame([]byte("x"))
	b[0] ^= 0xff
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestReadRejectsVersionMismatch(t *testing.T) {
	b := frame([]byte("x"))
	b[8] = Version + 1
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch accepted: %v", err)
	}
}

func TestReadRejectsCorruptedPayload(t *testing.T) {
	b := frame([]byte("some payload bytes"))
	b[len(b)-40] ^= 0x01 // flip a payload bit
	if _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption accepted: %v", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	b := frame([]byte("some payload bytes"))
	for _, cut := range []int{1, 10, 21, len(b) - 1} {
		if _, err := Read(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
		if _, err := Parse(b[:cut]); err == nil {
			t.Errorf("Parse: truncation at %d accepted", cut)
		}
	}
}

// TestWriterGrowsByDoubling writes a payload of about a megabyte one
// primitive at a time: the buffer must grow by doubling, a dozen
// allocations from minRoom, and end at most twice the payload; a second
// payload of the same size into the reset writer allocates nothing.
func TestWriterGrowsByDoubling(t *testing.T) {
	var w Writer
	write := func() {
		w.Reset()
		mark := w.Begin()
		for i := 0; i < 100_000; i++ {
			w.Varint(int64(i) << 20)
			w.Bool(i%2 == 0)
			w.String("ab")
		}
		w.End(mark)
	}
	if n := testing.AllocsPerRun(1, write); n > 12 {
		t.Errorf("a %d-byte payload took %.0f allocations, want at most 12", len(w.Bytes()), n)
	}
	if cap(w.Bytes()) > 2*len(w.Bytes()) {
		t.Errorf("buffer of %d bytes holds a %d-byte payload, want at most twice", cap(w.Bytes()), len(w.Bytes()))
	}
	if n := testing.AllocsPerRun(1, write); n != 0 {
		t.Errorf("rewriting into the kept buffer took %.0f allocations", n)
	}
}
