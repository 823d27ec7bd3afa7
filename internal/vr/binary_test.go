package vr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"tvq/internal/objset"
)

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		reg := StandardRegistry()
		tr := randomTrace(r, 10+r.Intn(40), 12)
		var buf bytes.Buffer
		if err := Binary.WriteTrace(&buf, tr, reg); err != nil {
			t.Fatal(err)
		}
		got, err := Binary.ReadTrace(bytes.NewReader(buf.Bytes()), StandardRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if !tracesEqual(got, tr) {
			t.Fatalf("binary round trip mismatch: %d vs %d frames", got.Len(), tr.Len())
		}
	}
}

// TestBinaryMatchesJSONL is the codec-equality property: the same trace
// decoded through the binary and JSONL codecs yields identical frames.
func TestBinaryMatchesJSONL(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		tr := randomTrace(r, 5+r.Intn(30), 10)
		var jb, bb bytes.Buffer
		if err := JSONL.WriteTrace(&jb, tr, StandardRegistry()); err != nil {
			t.Fatal(err)
		}
		if err := Binary.WriteTrace(&bb, tr, StandardRegistry()); err != nil {
			t.Fatal(err)
		}
		jt, err := JSONL.ReadTrace(&jb, StandardRegistry())
		if err != nil {
			t.Fatal(err)
		}
		bt, err := Binary.ReadTrace(&bb, StandardRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if !tracesEqual(jt, bt) {
			t.Fatalf("jsonl and binary decodes disagree on trace %d", i)
		}
	}
}

// TestBinaryFrameOwnership pins the ownership contract: the binary
// reader marks frames Owned, the JSONL reader leaves them borrowed.
func TestBinaryFrameOwnership(t *testing.T) {
	reg := StandardRegistry()
	tr := randomTrace(rand.New(rand.NewSource(13)), 8, 6)
	var bb, jb bytes.Buffer
	if err := Binary.WriteTrace(&bb, tr, reg); err != nil {
		t.Fatal(err)
	}
	if err := JSONL.WriteTrace(&jb, tr, reg); err != nil {
		t.Fatal(err)
	}
	br := Binary.NewFrameReader(&bb, reg)
	jr := JSONL.NewFrameReader(&jb, reg)
	for {
		bf, berr := br.Next()
		jf, jerr := jr.Next()
		if (berr == io.EOF) != (jerr == io.EOF) {
			t.Fatalf("readers ended at different frames: %v vs %v", berr, jerr)
		}
		if berr == io.EOF {
			break
		}
		if berr != nil || jerr != nil {
			t.Fatal(berr, jerr)
		}
		if !bf.Owned {
			t.Fatalf("binary frame %d not marked owned", bf.FID)
		}
		if jf.Owned {
			t.Fatalf("jsonl frame %d marked owned", jf.FID)
		}
		if bf.FID != jf.FID || !bf.Objects.Equal(jf.Objects) {
			t.Fatalf("frame %d differs between codecs", bf.FID)
		}
		bf.Objects.Range(func(id objset.ID) bool {
			if bf.Classes[id] != jf.Classes[id] {
				t.Fatalf("frame %d: object %d class differs", bf.FID, id)
			}
			return true
		})
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	fw := Binary.NewFrameWriter(&buf, StandardRegistry())
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5 {
		t.Fatalf("empty stream is %d bytes, want 5 (header only)", buf.Len())
	}
	fr := Binary.NewFrameReader(&buf, StandardRegistry())
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream Next = %v, want io.EOF", err)
	}
}

// recordBoundaries walks the stream's length-prefixed framing and
// returns every offset at which a record (or the header) ends — the
// only offsets where a decoder may report clean io.EOF.
func recordBoundaries(t *testing.T, stream []byte) []int {
	t.Helper()
	if len(stream) < 5 {
		t.Fatalf("stream shorter than the %d-byte header", 5)
	}
	bounds := []int{5}
	pos := 5
	for pos < len(stream) {
		length, n := binary.Uvarint(stream[pos:])
		if n <= 0 {
			t.Fatalf("bad record length varint at offset %d", pos)
		}
		pos += n + int(length)
		if pos > len(stream) {
			t.Fatalf("record overruns stream at offset %d", pos)
		}
		bounds = append(bounds, pos)
	}
	return bounds
}

// TestBinaryTruncatedPrefixes feeds every prefix of a valid stream to
// the decoder with the exact contract: clean io.EOF if and only if the
// cut falls on a record boundary, vr.ErrTruncated everywhere else —
// never a panic, never silent success past the cut, never a clean end
// mid-record.
func TestBinaryTruncatedPrefixes(t *testing.T) {
	reg := StandardRegistry()
	tr := randomTrace(rand.New(rand.NewSource(14)), 12, 8)
	var buf bytes.Buffer
	if err := Binary.WriteTrace(&buf, tr, reg); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	boundary := make(map[int]bool)
	for _, b := range recordBoundaries(t, full) {
		boundary[b] = true
	}
	for cut := 0; cut <= len(full); cut++ {
		fr := Binary.NewFrameReader(bytes.NewReader(full[:cut]), StandardRegistry())
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if boundary[cut] {
			if err != io.EOF {
				t.Fatalf("cut %d/%d on a record boundary: err = %v, want io.EOF", cut, len(full), err)
			}
		} else if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d/%d mid-record: err = %v, want ErrTruncated", cut, len(full), err)
		}
		// The result is sticky: a second Next reports a failure again.
		if _, again := fr.Next(); again == nil {
			t.Fatalf("cut %d: reader kept going after terminal result", cut)
		}
	}
}

// TestBinaryTrailingGarbage pins the boundary half of the truncation
// contract from the other side: a valid stream with trailing partial
// bytes after its last full record must yield every original frame and
// then vr.ErrTruncated — a clean io.EOF would silently swallow the
// tail of a corrupted file.
func TestBinaryTrailingGarbage(t *testing.T) {
	reg := StandardRegistry()
	tr := randomTrace(rand.New(rand.NewSource(18)), 6, 6)
	var buf bytes.Buffer
	if err := Binary.WriteTrace(&buf, tr, reg); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	tails := [][]byte{
		{0x80},             // unterminated length varint
		{0xff},             // unterminated length varint, high bits
		{0xff, 0xff, 0xff}, // longer unterminated varint
		{0x85, 0x90},       // multi-byte varint cut mid-way
		{0x10},             // length 16 with no body
		{0x03, 0x02},       // length 3 with a 1-byte body
	}
	for _, tail := range tails {
		stream := append(append([]byte{}, full...), tail...)
		for _, mode := range []string{"plain", "one-byte-reads"} {
			var rd io.Reader = bytes.NewReader(stream)
			if mode == "one-byte-reads" {
				rd = iotest.OneByteReader(bytes.NewReader(stream))
			}
			fr := Binary.NewFrameReader(rd, StandardRegistry())
			frames := 0
			var err error
			for err == nil {
				if _, err = fr.Next(); err == nil {
					frames++
				}
			}
			if frames != tr.Len() {
				t.Fatalf("tail %x (%s): decoded %d frames before failing, want all %d", tail, mode, frames, tr.Len())
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("tail %x (%s): err = %v, want ErrTruncated", tail, mode, err)
			}
		}
	}
}

// TestBinaryCorruptStreams pins the error taxonomy on hand-crafted
// malformed streams.
func TestBinaryCorruptStreams(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		tr := randomTrace(rand.New(rand.NewSource(15)), 4, 5)
		if err := Binary.WriteTrace(&buf, tr, StandardRegistry()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE\x01")},
		{"bad version", []byte("TVQF\x09")},
		{"zero-length record", []byte("TVQF\x01\x00")},
		{"huge record length", append([]byte("TVQF\x01"), 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"unknown record kind", []byte("TVQF\x01\x01\x7f")},
		{"empty classdef", []byte("TVQF\x01\x01\x01")},
		// Frame record: fid 0, one object id 5, class index 3 with no classdef.
		{"class index without classdef", []byte("TVQF\x01\x05\x02\x00\x01\x05\x03")},
		// Frame record: count 2 but only one id byte follows.
		{"set count beyond record", []byte("TVQF\x01\x04\x02\x00\x02\x05")},
		// Frame record: two ids with zero delta (not strictly increasing).
		{"zero id delta", []byte("TVQF\x01\x07\x02\x00\x02\x05\x00\x00\x00")},
		{"flipped body byte", flipByte(valid, len(valid)-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr := Binary.NewFrameReader(bytes.NewReader(tc.bytes), StandardRegistry())
			var err error
			for err == nil {
				_, err = fr.Next()
			}
			var ce *CorruptError
			if err == io.EOF {
				t.Fatalf("corrupt stream decoded cleanly")
			}
			if !errors.Is(err, ErrTruncated) && !errors.As(err, &ce) {
				t.Fatalf("untyped error %v", err)
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

func TestAppendSetDecodeSet(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 50; i++ {
		n := r.Intn(200)
		ids := make([]objset.ID, 0, n)
		for j := 0; j < n; j++ {
			ids = append(ids, objset.ID(r.Intn(500)))
		}
		s := objset.New(ids...)
		sparse := AppendSet(nil, s)
		dense := AppendSet(nil, objset.Compact(s))
		if !bytes.Equal(sparse, dense) {
			t.Fatal("encoding depends on set representation")
		}
		got, consumed, err := DecodeSet(append(sparse, 0xAA, 0xBB)) // trailing bytes ignored
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(sparse) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(sparse))
		}
		if !got.Equal(s) {
			t.Fatalf("decode mismatch: %v vs %v", got, s)
		}
	}
	// Malformed encodings return typed errors.
	for _, bad := range [][]byte{
		{},                                   // missing count
		{0x02, 0x05},                         // count 2, one id
		{0x02, 0x05, 0x00},                   // zero delta
		{0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}, // id overflows uint32
	} {
		_, _, err := DecodeSet(bad)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("DecodeSet(%v) error %v, want CorruptError", bad, err)
		}
	}
}

func TestCodecRegistry(t *testing.T) {
	for _, c := range Codecs() {
		byName, ok := CodecByName(c.Name())
		if !ok || byName.Name() != c.Name() {
			t.Fatalf("CodecByName(%q) = %v, %v", c.Name(), byName, ok)
		}
		byCT, ok := CodecByContentType(c.ContentType() + "; charset=utf-8")
		if !ok || byCT.Name() != c.Name() {
			t.Fatalf("CodecByContentType(%q) failed", c.ContentType())
		}
	}
	if c, ok := CodecByContentType("application/json"); !ok || c.Name() != "jsonl" {
		t.Fatal("application/json should alias jsonl")
	}
	if _, ok := CodecByContentType("text/html"); ok {
		t.Fatal("unknown content type resolved")
	}
	if _, ok := CodecByContentType(""); ok {
		t.Fatal("empty content type resolved; defaulting is the caller's policy")
	}
}

// FuzzDecodeFrameBinary hardens the binary frame decoder: arbitrary
// bytes must decode into frames that re-encode and decode back
// identically, or fail with a typed error — never panic.
func FuzzDecodeFrameBinary(f *testing.F) {
	// Valid streams as seeds, plus structural edge cases.
	reg := StandardRegistry()
	var valid bytes.Buffer
	tr := randomTrace(rand.New(rand.NewSource(17)), 6, 6)
	if err := Binary.WriteTrace(&valid, tr, reg); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		valid.Bytes(),
		[]byte("TVQF\x01"),                 // header only
		[]byte("TVQF\x01\x03\x02\x00\x00"), // one empty frame
		[]byte("TVQF\x02"),                 // wrong version
		[]byte("TVQF\x01\x01\x7f"),         // unknown kind
		[]byte("TVQF\x01\x05\x01car"),      // classdef only
		[]byte("TVQF\x01\x00"),             // zero-length record
		{},
		[]byte("\xff\xfe\x00"),
		// Trailing garbage after full records: must end ErrTruncated.
		append(append([]byte{}, valid.Bytes()...), 0x80),
		append(append([]byte{}, valid.Bytes()...), 0x10),
		append(append([]byte{}, valid.Bytes()...), 0x03, 0x02),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		reg := StandardRegistry()
		fr := Binary.NewFrameReader(bytes.NewReader(input), reg)
		var frames []Frame
		for {
			fo, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var ce *CorruptError
				if !errors.Is(err, ErrTruncated) && !errors.As(err, &ce) {
					t.Fatalf("untyped decode error %v", err)
				}
				return
			}
			if !fo.Owned {
				t.Fatal("decoded binary frame not marked owned")
			}
			frames = append(frames, fo)
		}
		// Accepted input re-encodes and round-trips frame by frame.
		var buf bytes.Buffer
		fw := Binary.NewFrameWriter(&buf, reg)
		for _, fo := range frames {
			if err := fw.WriteFrame(fo); err != nil {
				t.Fatalf("re-encode of accepted frame %d failed: %v", fo.FID, err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		back := Binary.NewFrameReader(&buf, reg)
		for _, want := range frames {
			got, err := back.Next()
			if err != nil {
				t.Fatalf("decode of re-encoding failed: %v", err)
			}
			if got.FID != want.FID || !got.Objects.Equal(want.Objects) {
				t.Fatalf("round trip changed frame %d", want.FID)
			}
		}
		if _, err := back.Next(); err != io.EOF {
			t.Fatalf("re-encoding has extra frames: %v", err)
		}
	})
}

// TestBinaryWriteFrameAllocs pins a warm WriteFrame, one whose classes
// the stream has already defined, at no allocations: the record body
// goes into the writer's scratch, and so does the length prefix, which
// as a local array escaped through bufio.Writer to the io.Writer beneath.
func TestBinaryWriteFrameAllocs(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 40, 12)
	fw := Binary.NewFrameWriter(io.Discard, StandardRegistry())
	frames := tr.Frames()
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		f := frames[i%len(frames)]
		f.FID = FrameID(i + len(frames))
		i++
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("a warm WriteFrame allocates %.1f times, want 0", n)
	}
}
