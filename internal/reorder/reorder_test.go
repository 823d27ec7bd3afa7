package reorder

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// frame builds a test frame with the given id and object ids (all of
// class 1).
func frame(fid vr.FrameID, ids ...objset.ID) vr.Frame {
	f := vr.Frame{FID: fid}
	if len(ids) > 0 {
		f.Classes = make(map[objset.ID]vr.Class, len(ids))
		for _, id := range ids {
			f.Classes[id] = 1
		}
		f.Objects = objset.New(ids...)
	}
	return f
}

// push is a test helper asserting Push succeeds.
func push(t *testing.T, b *Buffer, f vr.Frame) []vr.Frame {
	t.Helper()
	out, err := b.Push(f, nil)
	if err != nil {
		t.Fatalf("Push(%d): %v", f.FID, err)
	}
	return out
}

func fids(frames []vr.Frame) []vr.FrameID {
	out := make([]vr.FrameID, len(frames))
	for i, f := range frames {
		out[i] = f.FID
	}
	return out
}

func TestBufferInOrderPassThrough(t *testing.T) {
	b := New(3, Drop, 0)
	for fid := vr.FrameID(0); fid < 10; fid++ {
		out := push(t, b, frame(fid, objset.ID(fid+1)))
		if len(out) != 1 || out[0].FID != fid {
			t.Fatalf("frame %d: released %v, want itself", fid, fids(out))
		}
		if d := b.Depth(); d != 0 {
			t.Fatalf("frame %d: depth %d after in-order push", fid, d)
		}
		if w := b.Watermark(); w != fid {
			t.Fatalf("frame %d: watermark %d, want %d", fid, w, fid)
		}
	}
	if b.LateCount() != 0 {
		t.Fatalf("late count %d on an in-order stream", b.LateCount())
	}
}

func TestBufferReassemblesWithinBound(t *testing.T) {
	// Arrival 2,0,1,4,5,3 has max displacement 2.
	b := New(2, Drop, 0)
	steps := []struct {
		push vr.FrameID
		want []vr.FrameID
	}{
		{2, nil}, {0, []vr.FrameID{0}}, {1, []vr.FrameID{1, 2}},
		{4, nil}, {5, nil}, {3, []vr.FrameID{3, 4, 5}},
	}
	for _, st := range steps {
		out := push(t, b, frame(st.push))
		if fmt.Sprint(fids(out)) != fmt.Sprint(st.want) {
			t.Fatalf("push %d: released %v, want %v", st.push, fids(out), st.want)
		}
		if d := b.Depth(); d > 2 {
			t.Fatalf("push %d: depth %d exceeds bound", st.push, d)
		}
	}
	if b.Cursor() != 6 || b.LateCount() != 0 {
		t.Fatalf("cursor %d late %d, want 6 and 0", b.Cursor(), b.LateCount())
	}
}

func TestBufferLateArrivalByPolicy(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		b := New(1, Drop, 0)
		push(t, b, frame(0))
		push(t, b, frame(1))
		out := push(t, b, frame(0)) // below watermark: dropped, counted
		if len(out) != 0 || b.LateCount() != 1 {
			t.Fatalf("released %v, late %d; want none and 1", fids(out), b.LateCount())
		}
	})
	t.Run("error", func(t *testing.T) {
		b := New(1, Error, 0)
		push(t, b, frame(0))
		_, err := b.Push(frame(0), nil)
		var lfe *LateFrameError
		if !errors.As(err, &lfe) || !errors.Is(err, ErrLate) {
			t.Fatalf("err = %v, want *LateFrameError wrapping ErrLate", err)
		}
		if lfe.FID != 0 || lfe.Watermark != 0 || lfe.Missing || lfe.Duplicate {
			t.Fatalf("error shape %+v", lfe)
		}
		if b.LateCount() != 1 {
			t.Fatalf("late %d, want 1", b.LateCount())
		}
	})
}

func TestBufferDuplicateOfBuffered(t *testing.T) {
	b := New(3, Drop, 0)
	push(t, b, frame(2))
	out := push(t, b, frame(2))
	if len(out) != 0 || b.LateCount() != 1 || b.Depth() != 1 {
		t.Fatalf("released %v, late %d, depth %d", fids(out), b.LateCount(), b.Depth())
	}

	be := New(3, Error, 0)
	push(t, be, frame(2))
	_, err := be.Push(frame(2), nil)
	var lfe *LateFrameError
	if !errors.As(err, &lfe) || !lfe.Duplicate {
		t.Fatalf("err = %v, want duplicate *LateFrameError", err)
	}
}

func TestBufferOverdueGap(t *testing.T) {
	t.Run("drop-fills", func(t *testing.T) {
		// bound 2: receiving frame 4 first proves ids ≤ 1 can never
		// arrive; 0 and 1 are synthesized empty, 2 and 3 stay awaited.
		b := New(2, Drop, 0)
		out := push(t, b, frame(4, 7))
		if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{0, 1}) {
			t.Fatalf("released %v, want [0 1]", fids(out))
		}
		for _, f := range out {
			if !f.Objects.IsEmpty() {
				t.Fatalf("gap fill %d is not empty", f.FID)
			}
		}
		if b.LateCount() != 2 || b.FilledCount() != 2 || b.Depth() != 1 {
			t.Fatalf("late %d filled %d depth %d", b.LateCount(), b.FilledCount(), b.Depth())
		}
		// The real frames 2 and 3 then release everything buffered.
		out = push(t, b, frame(2))
		if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{2}) {
			t.Fatalf("released %v, want [2]", fids(out))
		}
		out = push(t, b, frame(3))
		if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{3, 4}) {
			t.Fatalf("released %v, want [3 4]", fids(out))
		}
	})
	t.Run("error-refuses", func(t *testing.T) {
		b := New(2, Error, 0)
		out, err := b.Push(frame(4), nil)
		var lfe *LateFrameError
		if !errors.As(err, &lfe) || !lfe.Missing || lfe.FID != 0 {
			t.Fatalf("err = %v (released %v), want missing-frame-0 error", err, fids(out))
		}
	})
	t.Run("error-keeps-released-prefix", func(t *testing.T) {
		// 0 releases immediately; then 5 arrives, proving 1 overdue —
		// the error must not swallow previously released frames of the
		// same push (none here) nor corrupt the count of earlier ones.
		b := New(2, Error, 0)
		push(t, b, frame(0))
		push(t, b, frame(2))
		out, err := b.Push(frame(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{1, 2}) {
			t.Fatalf("released %v, want [1 2]", fids(out))
		}
	})
}

func TestBufferZeroBoundStrict(t *testing.T) {
	b := New(0, Drop, 0)
	push(t, b, frame(0))
	// Any skip-ahead immediately resolves the gap by policy.
	out := push(t, b, frame(2))
	if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{1, 2}) {
		t.Fatalf("released %v, want [1 2] (gap filled)", fids(out))
	}
	if b.FilledCount() != 1 {
		t.Fatalf("filled %d, want 1", b.FilledCount())
	}
}

func TestBufferMidStreamCursor(t *testing.T) {
	b := New(2, Drop, 100)
	if w := b.Watermark(); w != 99 {
		t.Fatalf("watermark %d, want 99", w)
	}
	out := push(t, b, frame(101))
	if len(out) != 0 || b.Depth() != 1 {
		t.Fatalf("released %v depth %d", fids(out), b.Depth())
	}
	out = push(t, b, frame(100))
	if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{100, 101}) {
		t.Fatalf("released %v", fids(out))
	}
	if _, err := b.Push(frame(99), nil); err != nil {
		t.Fatal(err) // dropped, not an error, under Drop
	}
	if b.LateCount() != 1 {
		t.Fatalf("late %d, want 1", b.LateCount())
	}
}

// TestShuffleBoundedDisplacement pins the generator's contract: every
// frame lands within bound positions of its slot, and pushing the
// shuffled stream through a Buffer of the same bound reproduces the
// identity with zero late frames.
func TestShuffleBoundedDisplacement(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		bound := rng.Intn(8)
		frames := make([]vr.Frame, n)
		for i := range frames {
			frames[i] = frame(vr.FrameID(i), objset.ID(i%7+1))
		}
		shuffled := Shuffle(frames, bound, rng)
		if len(shuffled) != n {
			t.Fatalf("seed %d: %d frames out, %d in", seed, len(shuffled), n)
		}
		moved := false
		for pos, f := range shuffled {
			if d := int64(pos) - f.FID; d > int64(bound) || d < -int64(bound) {
				t.Fatalf("seed %d: frame %d at position %d, displacement beyond bound %d", seed, f.FID, pos, bound)
			}
			if f.FID != int64(pos) {
				moved = true
			}
		}
		if bound > 0 && n > 20 && !moved {
			t.Errorf("seed %d: bound-%d shuffle of %d frames moved nothing", seed, bound, n)
		}

		b := New(bound, Error, 0)
		var released []vr.Frame
		for _, f := range shuffled {
			var err error
			released, err = b.Push(f, released)
			if err != nil {
				t.Fatalf("seed %d: in-bound shuffle tripped the late policy: %v", seed, err)
			}
			if b.Depth() > bound {
				t.Fatalf("seed %d: depth %d exceeds bound %d", seed, b.Depth(), bound)
			}
		}
		if len(released) != n {
			t.Fatalf("seed %d: released %d of %d", seed, len(released), n)
		}
		for i, f := range released {
			if f.FID != int64(i) {
				t.Fatalf("seed %d: release %d has fid %d", seed, i, f.FID)
			}
		}
	}
}

// roundTrip decodes a buffer snapshot, encodes what it decoded and
// requires the same bytes with nothing left over, like the generator and
// session round trips: a field written but not restored re-encodes as
// zero, one restored but not written misreads what follows.
func roundTrip(t *testing.T, data []byte, bound int, policy Policy) *Buffer {
	t.Helper()
	sr := snapshot.NewReader(data)
	b, err := Decode(sr, bound, policy)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", sr.Remaining())
	}
	var sw snapshot.Writer
	b.Encode(&sw)
	if !bytes.Equal(sw.Bytes(), data) {
		t.Fatalf("re-encoding a decoded buffer changed it (%d bytes, was %d)", len(sw.Bytes()), len(data))
	}
	return b
}

// TestBufferSnapshotRoundTrip snapshots a buffer holding a frame, after a
// late arrival and two gap fills, so every field of the encoding is
// non-zero, and requires the round trip to go on exactly.
func TestBufferSnapshotRoundTrip(t *testing.T) {
	b := New(3, Drop, 0)
	push(t, b, frame(0, 1, 2))
	push(t, b, frame(2, 3))
	push(t, b, frame(4))
	push(t, b, frame(1))    // releases 1,2 — leaves 4 buffered
	push(t, b, frame(0))    // late, dropped
	push(t, b, frame(9, 7)) // 3 and 5 overdue: filled around 4 — leaves 9 buffered

	var sw snapshot.Writer
	b.Encode(&sw)
	got := roundTrip(t, sw.Bytes(), b.Bound(), b.LatePolicy())
	if got.Cursor() != b.Cursor() || got.Depth() != b.Depth() ||
		got.LateCount() != b.LateCount() || got.FilledCount() != b.FilledCount() {
		t.Fatalf("restored (cursor %d depth %d late %d filled %d), want (%d %d %d %d)",
			got.Cursor(), got.Depth(), got.LateCount(), got.FilledCount(),
			b.Cursor(), b.Depth(), b.LateCount(), b.FilledCount())
	}
	if got.Depth() == 0 || got.FilledCount() == 0 || got.LateCount() <= got.FilledCount() {
		t.Fatalf("snapshot holds %d frames, %d late, %d filled; the test is vacuous", got.Depth(), got.LateCount(), got.FilledCount())
	}
	// The restored buffer must continue exactly: frames 6–8 release the
	// buffered 9 with its objects intact.
	push(t, got, frame(6))
	push(t, got, frame(7))
	out := push(t, got, frame(8))
	if fmt.Sprint(fids(out)) != fmt.Sprint([]vr.FrameID{8, 9}) {
		t.Fatalf("restored buffer released %v, want [8 9]", fids(out))
	}
	if !out[1].Owned || !out[1].Objects.Contains(7) {
		t.Errorf("restored buffered frame is %v, owned %v", out[1].Objects, out[1].Owned)
	}

	// A restored buffered frame keeps its object set.
	b2 := New(2, Drop, 0)
	push(t, b2, frame(1, 5, 9))
	var sw2 snapshot.Writer
	b2.Encode(&sw2)
	got2, err := Decode(snapshot.NewReader(sw2.Bytes()), 2, Drop)
	if err != nil {
		t.Fatal(err)
	}
	out = push(t, got2, frame(0))
	if len(out) != 2 || out[1].Objects.Len() != 2 || !out[1].Objects.Contains(5) || !out[1].Objects.Contains(9) {
		t.Fatalf("restored frame lost objects: %v", out)
	}
	if out[1].Classes[5] != 1 {
		t.Fatalf("restored frame lost classes: %v", out[1].Classes)
	}
}

func TestBufferDecodeRejectsCorruptState(t *testing.T) {
	encode := func(fn func(sw *snapshot.Writer)) *snapshot.Reader {
		var sw snapshot.Writer
		fn(&sw)
		return snapshot.NewReader(sw.Bytes())
	}
	cases := []struct {
		name string
		sr   *snapshot.Reader
	}{
		{"truncated", snapshot.NewReader([]byte{1})},
		{"maxSeen-below-cursor", encode(func(sw *snapshot.Writer) {
			sw.Varint(5) // cursor
			sw.Varint(2) // maxSeen < cursor-1
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(0)
		})},
		{"maxSeen-beyond-bound", encode(func(sw *snapshot.Writer) {
			sw.Varint(0)
			sw.Varint(10) // maxSeen > cursor+bound
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(0)
		})},
		{"buffered-at-cursor", encode(func(sw *snapshot.Writer) {
			sw.Varint(0)
			sw.Varint(1)
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(1)
			sw.Varint(0) // fid == cursor
			sw.Uvarint(0)
		})},
		{"duplicate-buffered", encode(func(sw *snapshot.Writer) {
			sw.Varint(0)
			sw.Varint(2)
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(2)
			sw.Varint(1)
			sw.Uvarint(0)
			sw.Varint(1)
			sw.Uvarint(0)
		})},
		{"unsorted-objects", encode(func(sw *snapshot.Writer) {
			sw.Varint(0)
			sw.Varint(1)
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(1)
			sw.Varint(1)
			sw.Uvarint(2) // two objects, descending
			sw.Uvarint(9)
			sw.Uvarint(1)
			sw.Uvarint(3)
			sw.Uvarint(1)
		})},
		// An id or class that does not fit objset.ID or vr.Class would be
		// truncated into another object or class; decodeEngine refuses
		// the same ranges.
		{"object-id-out-of-range", encode(func(sw *snapshot.Writer) {
			sw.Varint(0)
			sw.Varint(1)
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(1)
			sw.Varint(1)
			sw.Uvarint(1)
			sw.Uvarint(1<<32 + 5)
			sw.Uvarint(1)
		})},
		{"class-out-of-range", encode(func(sw *snapshot.Writer) {
			sw.Varint(0)
			sw.Varint(1)
			sw.Uvarint(0)
			sw.Uvarint(0)
			sw.Uvarint(1)
			sw.Varint(1)
			sw.Uvarint(1)
			sw.Uvarint(5)
			sw.Uvarint(1<<16 + 1)
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.sr, 3, Drop); err == nil {
				t.Fatal("Decode accepted corrupt state")
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Drop, Error} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("revise"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

// FuzzReorderBuffer drives a buffer with arbitrary arrival sequences
// and checks the structural invariants that everything downstream
// depends on: releases are gapless and strictly ascending from the
// initial cursor, depth never exceeds the bound, the watermark always
// trails the cursor by one, and under the Error policy state stops
// mutating observably after the first rejection.
func FuzzReorderBuffer(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 2, 3})          // in order
	f.Add([]byte{2, 0, 2, 0, 1, 4, 5, 3})    // bound-2 shuffle
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2})       // duplicates
	f.Add([]byte{2, 1, 4, 0})                // overdue gap under Error
	f.Add([]byte{0, 0, 5, 1, 9, 2})          // strict bound with gaps
	f.Add([]byte{7, 0, 9, 8, 7, 6, 5, 4, 3}) // reversed run
	f.Add([]byte{3, 1, 1, 0, 2, 2, 3, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bound := int(data[0] % 8)
		policy := Drop
		if data[1]%2 == 1 {
			policy = Error
		}
		b := New(bound, policy, 0)
		next := vr.FrameID(0) // next id the downstream engine expects
		pushed := 0
		for _, raw := range data[2:] {
			fid := vr.FrameID(raw)
			out, err := b.Push(frame(fid, objset.ID(raw%5+1)), nil)
			pushed++
			for _, rf := range out {
				if rf.FID != next {
					t.Fatalf("released %d, downstream expects %d (bound %d policy %v)", rf.FID, next, bound, policy)
				}
				next++
			}
			if b.Cursor() != next {
				t.Fatalf("cursor %d but %d frames released", b.Cursor(), next)
			}
			if b.Watermark() != next-1 {
				t.Fatalf("watermark %d, want %d", b.Watermark(), next-1)
			}
			if err != nil {
				if policy != Error {
					t.Fatalf("Push errored under Drop: %v", err)
				}
				if !errors.Is(err, ErrLate) {
					t.Fatalf("Push error does not wrap ErrLate: %v", err)
				}
				return // the session treats this as terminal for the feed
			}
			if b.Depth() > bound {
				t.Fatalf("depth %d exceeds bound %d", b.Depth(), bound)
			}
		}
		if policy == Drop {
			// Conservation: every push is released, buffered, or counted
			// late; fills add releases without pushes and are counted
			// late too, so they appear on both sides twice.
			if uint64(pushed)+2*b.FilledCount() != uint64(next)+uint64(b.Depth())+b.LateCount() {
				t.Fatalf("conservation: pushed %d + filled %d != released %d + depth %d + late %d",
					pushed, b.FilledCount(), next, b.Depth(), b.LateCount())
			}
		}
	})
}

// TestPushClonesBorrowedFrames pins the buffer's ownership discipline:
// a frame pushed without Owned (the JSONL codec path) must not alias
// the producer's storage while it waits in pending — the producer is
// free to reuse its scan buffers between pushes. Binary-codec frames
// arrive Owned and are stored as-is. A static check over Buffer.Push
// first found the missing clone; this test and the disorder shape of
// the root package's TestSessionResultLifetime now hold it.
func TestPushClonesBorrowedFrames(t *testing.T) {
	b := New(3, Drop, 0)
	f := frame(1, 10, 11, 12) // buffered: waits for frame 0
	if f.Owned {
		t.Fatal("test frame unexpectedly owned")
	}
	out := push(t, b, f)
	if len(out) != 0 {
		t.Fatalf("frame 1 released early: %v", out)
	}
	// Producer reuses the backing storage while frame 1 is pending:
	// keeping only 12 writes it over 10, so an alias reads {12, 11, 12}.
	f.Objects.IntersectWith(objset.New(12))

	out = push(t, b, frame(0, 1))
	if len(out) != 2 {
		t.Fatalf("released %d frames, want 2", len(out))
	}
	got := out[1]
	if !got.Objects.Equal(objset.New(10, 11, 12)) {
		t.Fatalf("buffered frame aliased producer storage: %v", got.Objects)
	}
	if !got.Owned {
		t.Fatal("released clone should be marked Owned")
	}
}
