package tvq_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"tvq"
	"tvq/internal/cnf"
	"tvq/internal/engine"
	"tvq/internal/snapshot"
)

// Snapshot codecs are proven by round trip: what a snapshot decodes to
// must encode to the same bytes, and must go on like the run it was
// taken from. A field written but not restored re-encodes as zero; a
// field restored but not written misreads everything after it; a kind or
// version the decoder does not route back is refused or re-encodes as
// another. FuzzResume then feeds the decoders what no encoder writes.

// resumeRoundTrip resumes data, snapshots what it resumed to and
// requires the same bytes. The caller runs the returned session on for
// at least w more frames against an uninterrupted one.
func resumeRoundTrip(t *testing.T, data []byte, opts ...tvq.Option) *tvq.Session {
	t.Helper()
	s, err := tvq.Resume(nil, bytes.NewReader(data), opts...)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	again, err := reencode(s, data)
	if err != nil {
		t.Fatalf("snapshot of the resumed state: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("a resumed snapshot re-encodes to %d bytes that differ from its %d", len(again), len(data))
	}
	return s
}

// reencode snapshots s, resumed from data. A bare engine or pool payload
// resumes into a session, whose snapshot would wrap it, so its processor
// is restored and re-encoded through internal/engine instead.
func reencode(s *tvq.Session, data []byte) ([]byte, error) {
	if kind, err := tvq.SnapshotKind(bytes.NewReader(data)); err != nil {
		return nil, err
	} else if kind == "session" {
		var buf bytes.Buffer
		err := s.Snapshot(&buf)
		return buf.Bytes(), err
	}
	payload, err := snapshot.Parse(data)
	if err != nil {
		return nil, err
	}
	proc, err := engine.Restore(payload, engine.PoolOptions{})
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	return frameProc(proc)
}

// frameProc writes proc's snapshot as a bare snapshot file, as builds
// before the Session API wrote them.
func frameProc(proc engine.Processor) ([]byte, error) {
	var sw snapshot.Writer
	at := sw.Begin()
	if err := proc.Snapshot(&sw); err != nil {
		return nil, err
	}
	sw.End(at)
	return sw.Bytes(), nil
}

// procFile is frameProc failing the test on an error.
func procFile(t testing.TB, proc engine.Processor) []byte {
	t.Helper()
	file, err := frameProc(proc)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// sessionFile writes a session snapshot file of the given kind around
// proc's snapshot: the recorded subscription ids, the processor, then
// whatever tail writes (a session2's reorder section).
func sessionFile(t testing.TB, kind string, subIDs []int, proc engine.Processor, tail func(*snapshot.Writer)) []byte {
	t.Helper()
	var sw snapshot.Writer
	outer := sw.Begin()
	sw.String(kind)
	sw.Uvarint(uint64(len(subIDs)))
	for _, id := range subIDs {
		sw.Int(id)
	}
	blob := sw.BeginBlob()
	inner := sw.Begin()
	if err := proc.Snapshot(&sw); err != nil {
		t.Fatal(err)
	}
	sw.End(inner)
	sw.EndBlob(blob)
	if tail != nil {
		tail(&sw)
	}
	sw.End(outer)
	return sw.Bytes()
}

// frame wraps payload in a snapshot file.
func frame(payload []byte) []byte {
	var sw snapshot.Writer
	at := sw.Begin()
	sw.AppendWith(func(dst []byte) []byte { return append(dst, payload...) })
	sw.End(at)
	return sw.Bytes()
}

// A refused payload may allocate resumeAllocPerByte bytes per payload
// byte beyond resumeAllocBase. Every count a decoder reads is checked
// against the bytes left before it allocates, except the two
// window-sized rings of a generator (about 80 bytes a frame), which are
// built before the rest of the payload is read: to decode an engine's
// window group, or to validate a pool's queries. A query takes 13 bytes
// or more and can record a window of cnf.MaxWindow frames.
const (
	resumeAllocPerByte = 8 * cnf.MaxWindow
	resumeAllocBase    = 8 << 20
)

// FuzzResume feeds tvq.Resume payloads past the container: the input is
// wrapped in a valid snapshot file, so the fuzzer spends its time
// in the session, engine, pool, generator and reorder decoders rather
// than on the checksum. An input must be refused, within the allocation
// bound above, or resume to a session whose snapshot a second Resume
// reproduces byte for byte and that goes on processing frames.
func FuzzResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		if byFeedWorkers(payload) > 8 {
			// Accepted, it would start a goroutine per worker: a ShardByFeed
			// worker count is configuration, like WithWorkers.
			return
		}
		data := frame(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := tvq.Resume(nil, bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			if n := after.TotalAlloc - before.TotalAlloc; n > resumeAllocBase+resumeAllocPerByte*uint64(len(payload)) {
				t.Fatalf("refusing a %d-byte payload allocated %d bytes: %v", len(payload), n, err)
			}
			return
		}
		defer s.Close()

		once, err := reencode(s, data)
		if err != nil {
			t.Fatalf("snapshot of an accepted payload: %v", err)
		}
		again, err := tvq.Resume(nil, bytes.NewReader(once))
		if err != nil {
			t.Fatalf("resuming the re-encoded payload: %v", err)
		}
		defer again.Close()
		twice, err := reencode(again, once)
		if err != nil {
			t.Fatalf("snapshot of the second resume: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("a second resume re-encodes to %d bytes that differ from the first's %d", len(twice), len(once))
		}

		next := s.NextFID(0)
		if next > math.MaxInt64-8 {
			return // no frame ids are left to number the frames
		}
		for i, f := range sessionTrace(t).Frames()[:8] {
			f.FID = next + int64(i)
			if _, err := s.Process([]tvq.FeedFrame{{Frame: f}}); err != nil {
				return // a late-policy refusal ends the run; it must not panic
			}
		}
	})
}

// byFeedWorkers returns the worker count a ShardByFeed pool payload
// records, directly or inside a session, or 0.
func byFeedWorkers(payload []byte) int {
	sr := snapshot.NewReader(payload)
	switch sr.String() {
	case "session", "session2":
		for i, n := 0, sr.Count(1); i < n; i++ {
			sr.Int()
		}
		inner, err := snapshot.Parse(sr.Blob())
		if err != nil {
			return 0
		}
		return byFeedWorkers(inner)
	case "pool":
		if engine.ShardMode(sr.Int()) == engine.ShardByFeed {
			return sr.Int()
		}
	}
	return 0
}

// TestWindowAboveMaxRefused: a query window above cnf.MaxWindow is
// refused wherever a query enters — parsed, subscribed, or recorded in a
// snapshot — instead of reaching a generator, which would allocate
// window-sized rings for it (2^50 frames panicked in makeslice).
func TestWindowAboveMaxRefused(t *testing.T) {
	if _, err := tvq.ParseQuery(1, "car >= 1", cnf.MaxWindow+1, 1); err == nil {
		t.Error("ParseQuery accepted a window above MaxWindow")
	}
	if _, err := tvq.ParseQuery(1, "car >= 1", cnf.MaxWindow, 1); err != nil {
		t.Errorf("ParseQuery refused a window of MaxWindow: %v", err)
	}
	huge := tvq.MustQuery(2, "car >= 1", 5, 1)
	huge.Window = 1 << 50

	s, err := tvq.Open(nil, tvq.WithQuery(tvq.MustQuery(1, "car >= 1", 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Subscribe(huge); err == nil {
		t.Error("Subscribe accepted a window of 2^50 frames")
	}
	if _, err := tvq.Open(nil, tvq.WithQuery(huge)); err == nil {
		t.Error("Open accepted a window of 2^50 frames")
	}

	// A bare engine payload whose one group records the window.
	var sw snapshot.Writer
	sw.String("engine")
	sw.String(string(tvq.MethodSSG))
	sw.Bool(false) // pruning
	sw.Bool(false) // keep all classes
	sw.Int(int(tvq.Sliding))
	sw.Uvarint(0) // class names
	sw.Varint(0)  // next frame
	sw.Uvarint(0) // classes
	sw.Uvarint(1) // groups
	sw.Varint(0)  //   start
	sw.Uvarint(1) //   queries
	sw.Int(huge.ID)
	sw.Int(huge.Window)
	sw.Int(huge.Duration)
	sw.Uvarint(1) //     clauses
	sw.Uvarint(1) //       conditions: car >= 1
	sw.Bool(false)
	sw.String("car")
	sw.Int(int(cnf.GE))
	sw.Int(1)
	sw.String("ssg") //   generator kind; the rest is missing
	if _, err := tvq.Resume(nil, bytes.NewReader(frame(sw.Bytes()))); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("Resume of a recorded window of 2^50 frames: err = %v", err)
	}
}

// TestResumeRefusesNegativeDisorderBound: a session2 payload whose
// disorder bound does not fit an int would resume with a negative bound,
// which WithDisorderBound refuses.
func TestResumeRefusesNegativeDisorderBound(t *testing.T) {
	proc, err := engine.Open(seamQueries(), engine.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	for _, bound := range []uint64{math.MaxUint64, math.MaxInt64 + 1, 3} {
		file := sessionFile(t, "session2", nil, proc, func(sw *snapshot.Writer) {
			sw.Uvarint(bound)
			sw.Uvarint(0) // late policy
			sw.Uvarint(0) // feeds
		})
		s, err := tvq.Resume(nil, bytes.NewReader(file))
		if bound == 3 {
			if err != nil || s.DisorderBound() != 3 {
				t.Fatalf("bound 3: Resume = %v", err)
			}
			s.Close()
			continue
		}
		if err == nil {
			t.Errorf("bound %d resumed with DisorderBound() = %d", bound, s.DisorderBound())
			s.Close()
		}
	}
}

// endlessReader yields head and then zeros without end, counting what it
// hands out; past limit it fails, so a reader that does not stop ends
// anyway.
type endlessReader struct {
	head  []byte
	read  int
	limit int
}

func (e *endlessReader) Read(p []byte) (int, error) {
	if e.read >= e.limit {
		return 0, errors.New("read past the limit")
	}
	p = p[:min(len(p), e.limit-e.read)]
	n := copy(p, e.head[min(e.read, len(e.head)):])
	clear(p[n:])
	e.read += len(p)
	return len(p), nil
}

// TestResumeReadsNoFurtherThanARefusedHeader: Resume reads the 20-byte
// header before anything else, so a header declaring a payload over the
// limit, followed by an endless stream, is refused after those 20 bytes.
// Resume used to read its input to the end before looking at it.
func TestResumeReadsNoFurtherThanARefusedHeader(t *testing.T) {
	hdr := frame(nil)[:20]
	binary.LittleEndian.PutUint64(hdr[12:20], 2<<30)
	r := &endlessReader{head: hdr, limit: 1 << 20}
	if _, err := tvq.Resume(nil, r); err == nil || r.read > 20 {
		t.Fatalf("Resume read %d bytes of a header declaring 2 GiB and endless zeros: %v", r.read, err)
	}
}

// TestSessionSnapshotAllocatesUnderOnePayload: a warm session writes its
// snapshot in the buffers it kept from the last one, so a snapshot
// allocates less than the bytes it writes; the copies it once made cost
// about nine times as much.
func TestSessionSnapshotAllocatesUnderOnePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement")
	}
	s := goldenChurnSession(t)
	defer s.Close()
	var out bytes.Buffer
	if err := s.Snapshot(&out); err != nil { // warms the buffers
		t.Fatal(err)
	}
	size := out.Len()
	out.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Snapshot(&out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if out.Len() != size {
		t.Fatalf("a second snapshot of the same state wrote %d bytes, the first %d", out.Len(), size)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > uint64(size) {
		t.Errorf("a warm snapshot of %d bytes allocated %d bytes", size, n)
	}
}
