// Package reorder provides the bounded out-of-order ingest stage that
// sits in front of the engines: a per-feed buffer that holds up to
// `bound` displaced frames, re-sorts them by frame id, and releases
// the longest consecutive run the moment it exists. An explicit
// watermark tracks the highest frame id every earlier frame of the
// feed has been resolved for (released to the engine, or given up on
// by policy); frames arriving at or below the watermark are *late*
// and hit the configured Policy instead of corrupting engine state.
//
// The bound is a contract with the producer: a frame may arrive
// displaced by at most `bound` positions from its in-order slot. Any
// stream shuffled within that bound reassembles exactly — the engines
// observe the same frames in the same order as an in-order run, so
// query answers are byte-identical (the disorder differential harness
// pins this). Displacements beyond the bound degrade by policy, never
// silently: Drop counts the frame and, when a gap can no longer fill
// within bound, synthesizes an empty frame so the engines' gapless
// cursor contract holds; Error surfaces a typed *LateFrameError.
package reorder

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// Policy selects what happens to frames the bound cannot absorb: late
// arrivals (at or below the watermark), duplicates of buffered frames,
// and gaps that can no longer fill within bound.
type Policy uint8

const (
	// Drop discards late frames and synthesizes empty frames for
	// overdue gaps, counting both, so the stream keeps flowing — the
	// availability-over-completeness default.
	Drop Policy = iota
	// Error refuses: a late frame or an overdue gap fails the Push
	// with a *LateFrameError, leaving recovery to the caller — the
	// completeness-over-availability choice.
	Error
)

// String renders the policy in its CLI/JSON spelling.
func (p Policy) String() string {
	switch p {
	case Drop:
		return "drop"
	case Error:
		return "error"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy parses the CLI/JSON spelling ("drop" or "error").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop":
		return Drop, nil
	case "error":
		return Error, nil
	}
	return 0, fmt.Errorf("reorder: unknown late-frame policy %q (drop or error)", s)
}

// ErrLate is the sentinel every *LateFrameError wraps; match it with
// errors.Is to detect any late-frame rejection regardless of shape.
var ErrLate = errors.New("frame at or below reorder watermark")

// LateFrameError reports one frame the disorder bound could not
// absorb. Three shapes share it: a frame that arrived after its id was
// already resolved (the plain case), a duplicate of a frame still
// buffered (Duplicate), and — under the Error policy — a frame that
// never arrived although the watermark must pass it (Missing: FID
// names the absent frame, not the one whose arrival exposed it).
type LateFrameError struct {
	// FID is the late frame's id (for Missing, the id that never
	// arrived within bound).
	FID vr.FrameID
	// Watermark is the feed's watermark at rejection time: every id at
	// or below it was already resolved.
	Watermark vr.FrameID
	// Duplicate marks a second arrival of a frame still in the buffer.
	Duplicate bool
	// Missing marks an overdue gap: the frame is not late-arrived but
	// late-absent, detected when a newer arrival pushed the watermark
	// past it.
	Missing bool
}

func (e *LateFrameError) Error() string {
	switch {
	case e.Missing:
		return fmt.Sprintf("frame %d missing beyond the disorder bound (watermark %d)", e.FID, e.Watermark)
	case e.Duplicate:
		return fmt.Sprintf("frame %d duplicates a buffered frame (watermark %d)", e.FID, e.Watermark)
	}
	return fmt.Sprintf("frame %d arrived at or below watermark %d", e.FID, e.Watermark)
}

func (e *LateFrameError) Unwrap() error { return ErrLate }

// Buffer is one feed's reorder stage. It is not safe for concurrent
// use; the session serializes access like every other processing-path
// structure.
//
// Invariant (restored by every successful Push): cursor > maxSeen -
// bound - 1, i.e. every frame id the bound proves unrecoverable has
// been resolved. Two consequences follow. The watermark is always
// exactly cursor-1, and the buffer holds at most `bound` frames: every
// buffered id lies in (cursor, maxSeen] ⊆ (maxSeen-bound-1, maxSeen],
// a range of bound+1 ids of which cursor — always absent, or it would
// have been released — takes one slot.
type Buffer struct {
	bound  int
	policy Policy

	cursor  vr.FrameID // next id to release; everything below is resolved
	maxSeen vr.FrameID // highest id ever accepted (cursor-1 when none)
	pending map[vr.FrameID]vr.Frame

	late   uint64 // frames hit by the policy: late arrivals, duplicates, overdue gaps
	filled uint64 // empty frames synthesized for overdue gaps (Drop only)
}

// New builds a buffer for one feed. bound is the maximum displacement
// absorbed (0 = strict order); cursor is the next frame id the
// downstream engine expects — 0 for a fresh feed, the engine's cursor
// when the stage is attached mid-stream.
func New(bound int, policy Policy, cursor vr.FrameID) *Buffer {
	return &Buffer{
		bound:   bound,
		policy:  policy,
		cursor:  cursor,
		maxSeen: cursor - 1,
		pending: make(map[vr.FrameID]vr.Frame),
	}
}

// Bound returns the configured disorder bound.
func (b *Buffer) Bound() int { return b.bound }

// LatePolicy returns the configured late-frame policy.
func (b *Buffer) LatePolicy() Policy { return b.policy }

// Cursor returns the next frame id the buffer will release — equal to
// the downstream engine's cursor between Push calls.
func (b *Buffer) Cursor() vr.FrameID { return b.cursor }

// Watermark returns the highest frame id for which every frame at or
// below it has been resolved — released downstream, or consumed by the
// late policy. A frame arriving at or below the watermark is late.
func (b *Buffer) Watermark() vr.FrameID { return b.cursor - 1 }

// Depth returns the number of buffered (received, unreleased) frames;
// it never exceeds Bound.
func (b *Buffer) Depth() int { return len(b.pending) }

// LateCount returns how many frames the policy consumed: late
// arrivals, duplicates of buffered frames, and overdue gap fills.
func (b *Buffer) LateCount() uint64 { return b.late }

// FilledCount returns how many empty frames Drop synthesized for
// overdue gaps; each is also counted in LateCount.
func (b *Buffer) FilledCount() uint64 { return b.filled }

// Push feeds one arrival into the buffer and appends every frame it
// releases — in exact frame-id order, gaplessly continuing the
// previous releases — to out, returning the extended slice. A frame
// the policy consumes returns a nil-extended out under Drop and a
// *LateFrameError under Error; an Error-policy overdue gap returns the
// frames released before the gap together with the error (they left
// the buffer and must reach the engine — discarding them would lose
// data). After a Missing error the buffer is unusable for further
// pushes of the same feed: the caller treats it as a processing error.
func (b *Buffer) Push(f vr.Frame, out []vr.Frame) ([]vr.Frame, error) {
	if f.FID <= b.Watermark() {
		b.late++
		if b.policy == Error {
			return out, &LateFrameError{FID: f.FID, Watermark: b.Watermark()}
		}
		return out, nil
	}
	if _, dup := b.pending[f.FID]; dup {
		b.late++
		if b.policy == Error {
			return out, &LateFrameError{FID: f.FID, Watermark: b.Watermark(), Duplicate: true}
		}
		return out, nil
	}
	// The frame at the cursor, with nothing pending behind it, leaves on
	// this call and is never held: release it as it came, borrowed or
	// owned, as a strict session would pass it on. Nothing is pending,
	// so maxSeen < cursor and no gap can be overdue after it.
	if f.FID == b.cursor && len(b.pending) == 0 {
		b.maxSeen = f.FID
		b.cursor++
		return append(out, f), nil
	}
	// A borrowed frame's backing storage may be reused by the producer
	// while the frame waits in pending (the JSONL codec reuses its scan
	// buffers; see Frame.Owned). Take an owned copy up front —
	// binary-codec frames arrive Owned and skip the clone. Classes stays
	// shared: it is read-only by contract.
	if !f.Owned {
		f.Objects = f.Objects.Clone()
		f.Owned = true
	}
	b.pending[f.FID] = f
	if f.FID > b.maxSeen {
		b.maxSeen = f.FID
	}
	for {
		// Release eagerly: a consecutive run needs no watermark wait,
		// and draining keeps latency at one push instead of bound
		// pushes.
		if nf, ok := b.pending[b.cursor]; ok {
			delete(b.pending, b.cursor)
			out = append(out, nf)
			b.cursor++
			continue
		}
		// Overdue gap: the frame at cursor is absent, yet the bound
		// proves no future arrival may supply it (every in-bound
		// arrival exceeds maxSeen-bound). Resolve it by policy so the
		// invariant — and the engines' gapless cursor — holds.
		if b.cursor <= b.maxSeen-vr.FrameID(b.bound)-1 {
			if b.policy == Error {
				return out, &LateFrameError{FID: b.cursor, Watermark: b.maxSeen - vr.FrameID(b.bound) - 1, Missing: true}
			}
			b.late++
			b.filled++
			out = append(out, vr.Frame{FID: b.cursor})
			b.cursor++
			continue
		}
		return out, nil
	}
}

// Encode appends the buffer's state — cursor, maxSeen, counters, and
// every buffered frame — to sw. Bound and policy are not written: they
// are session configuration, recorded once by the session envelope
// rather than per feed.
func (b *Buffer) Encode(sw *snapshot.Writer) {
	sw.Varint(int64(b.cursor))
	sw.Varint(int64(b.maxSeen))
	sw.Uvarint(b.late)
	sw.Uvarint(b.filled)
	fids := make([]vr.FrameID, 0, len(b.pending))
	for fid := range b.pending {
		fids = append(fids, fid)
	}
	sort.Slice(fids, func(i, j int) bool { return fids[i] < fids[j] })
	sw.Uvarint(uint64(len(fids)))
	for _, fid := range fids {
		f := b.pending[fid]
		sw.Varint(int64(fid))
		sw.Uvarint(uint64(f.Objects.Len()))
		f.Objects.Range(func(id objset.ID) bool {
			sw.Uvarint(uint64(id))
			sw.Uvarint(uint64(f.Classes[id]))
			return true
		})
	}
}

// Decode rebuilds a buffer written by Encode; bound and policy come
// from the caller's (recorded) session configuration. Restored frames
// own their storage, so downstream retention skips the defensive
// clone, exactly like binary-decoded ingest.
func Decode(sr *snapshot.Reader, bound int, policy Policy) (*Buffer, error) {
	b := &Buffer{bound: bound, policy: policy, pending: make(map[vr.FrameID]vr.Frame)}
	b.cursor = vr.FrameID(sr.Varint())
	b.maxSeen = vr.FrameID(sr.Varint())
	b.late = sr.Uvarint()
	b.filled = sr.Uvarint()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if b.maxSeen < b.cursor-1 || b.maxSeen > b.cursor+vr.FrameID(bound) {
		return nil, fmt.Errorf("reorder: snapshot maxSeen %d outside [%d, %d] for cursor %d and bound %d",
			b.maxSeen, b.cursor-1, b.cursor+vr.FrameID(bound), b.cursor, bound)
	}
	n := sr.Count(2)
	for i := 0; i < n; i++ {
		fid := vr.FrameID(sr.Varint())
		nobj := sr.Count(2)
		if err := sr.Err(); err != nil {
			return nil, err
		}
		f := vr.Frame{FID: fid, Owned: true}
		if nobj > 0 {
			ids := make([]objset.ID, 0, nobj)
			f.Classes = make(map[objset.ID]vr.Class, nobj)
			prev := -1
			for j := 0; j < nobj; j++ {
				id, class := sr.Uvarint(), sr.Uvarint()
				if id > math.MaxUint32 || class > math.MaxUint16 || int(id) <= prev {
					sr.Fail("reorder: buffered frame %d object %d / class %d out of range or not ascending", fid, id, class)
					return nil, sr.Err()
				}
				prev = int(id)
				ids = append(ids, objset.ID(id))
				f.Classes[objset.ID(id)] = vr.Class(class)
			}
			f.Objects = objset.FromSorted(ids)
		}
		if fid <= b.Watermark() || fid > b.maxSeen {
			sr.Fail("reorder: buffered frame %d outside (%d, %d]", fid, b.Watermark(), b.maxSeen)
			return nil, sr.Err()
		}
		if _, dup := b.pending[fid]; dup {
			sr.Fail("reorder: buffered frame %d recorded twice", fid)
			return nil, sr.Err()
		}
		b.pending[fid] = f
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if _, held := b.pending[b.cursor]; held {
		return nil, fmt.Errorf("reorder: snapshot buffers frame %d, which should have been released", b.cursor)
	}
	if len(b.pending) > bound {
		return nil, fmt.Errorf("reorder: snapshot buffers %d frames, bound is %d", len(b.pending), bound)
	}
	return b, nil
}
