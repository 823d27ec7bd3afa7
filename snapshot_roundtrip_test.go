package tvq_test

import (
	"bytes"
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
	var buf bytes.Buffer
	if kind, _, err := snapshot.ReadKind(bytes.NewReader(data)); err != nil {
		return nil, err
	} else if kind == "session" || kind == "session2" {
		err := s.Snapshot(&buf)
		return buf.Bytes(), err
	}
	proc, err := engine.Restore(bytes.NewReader(data), engine.PoolOptions{})
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	err = proc.Snapshot(&buf)
	return buf.Bytes(), err
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
// wrapped in a valid snapshot.Write frame, so the fuzzer spends its time
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
		var data bytes.Buffer
		if err := snapshot.Write(&data, payload); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := tvq.Resume(nil, bytes.NewReader(data.Bytes()))
		runtime.ReadMemStats(&after)
		if err != nil {
			if n := after.TotalAlloc - before.TotalAlloc; n > resumeAllocBase+resumeAllocPerByte*uint64(len(payload)) {
				t.Fatalf("refusing a %d-byte payload allocated %d bytes: %v", len(payload), n, err)
			}
			return
		}
		defer s.Close()

		once, err := reencode(s, data.Bytes())
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
		inner, err := snapshot.Read(bytes.NewReader(sr.Blob()))
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
	var data bytes.Buffer
	if err := snapshot.Write(&data, sw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := tvq.Resume(nil, &data); err == nil || !strings.Contains(err.Error(), "window") {
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
	var inner bytes.Buffer
	if err := proc.Snapshot(&inner); err != nil {
		t.Fatal(err)
	}
	proc.Close()
	for _, bound := range []uint64{math.MaxUint64, math.MaxInt64 + 1, 3} {
		var sw snapshot.Writer
		sw.String("session2")
		sw.Uvarint(0) // subscriptions
		sw.Blob(inner.Bytes())
		sw.Uvarint(bound)
		sw.Uvarint(0) // late policy
		sw.Uvarint(0) // feeds
		var data bytes.Buffer
		if err := snapshot.Write(&data, sw.Bytes()); err != nil {
			t.Fatal(err)
		}
		s, err := tvq.Resume(nil, &data)
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
