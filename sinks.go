package tvq

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"tvq/internal/objset"
	"tvq/internal/sinkchan"
)

// Delivery is one match handed to a subscription's sink: which feed and
// frame produced it, and the match itself. A Delivery is a value and may
// be kept, queued or sent to other goroutines freely, but what its
// Match points to is shared — Match.Frames with the other matches of
// the same state, a fan-out's copies of the delivery with each other —
// and must be treated as read-only. That binds whoever builds a
// Delivery too: once delivered, its Frames slice must not change while
// the delivery can still be read. A JSONLSink counts as reading it
// until it is handed another feed or frame: a later delivery of the
// same feed and frame whose Frames is the same slice is written from
// the bytes encoded for the earlier one.
type Delivery struct {
	Feed  FeedID
	FID   FrameID
	Match Match
}

// Sink receives a subscription's matches, one Delivery per match, in
// feed order. Deliver runs synchronously on the session's processing
// path: returning an error fails the Process call that produced the
// match, and blocking (as ChanSink does when its buffer is full)
// backpressures the whole session — that is the mechanism by which a
// slow consumer slows ingestion instead of dropping matches.
type Sink interface {
	Deliver(d Delivery) error
}

// SinkFunc adapts a callback to the Sink interface.
type SinkFunc func(Delivery) error

// Deliver calls f.
func (f SinkFunc) Deliver(d Delivery) error { return f(d) }

// sessionBound is implemented by sinks that need wiring into the
// session's lifecycle: bind is called at Subscribe (or Resume) time,
// closeSink when the subscription is cancelled or the session closes.
type sessionBound interface {
	bind(subDone, sessionDone <-chan struct{})
	closeSink()
}

// ChanSink delivers matches on a channel. Deliver blocks while the
// buffer is full — backpressure, not loss — until the subscription is
// cancelled or the session closes, at which point pending deliveries
// are dropped. The channel is closed promptly when the subscription
// ends (Cancel or session Close), so consumers can simply range over C;
// buffered deliveries are still drained by the range before it ends.
// Consume from a different goroutine than the one driving the session,
// or make the buffer large enough for a batch, or Process will block
// forever waiting for a reader.
//
// A ChanSink belongs to exactly one subscription: its channel closes
// with that subscription, so unlike a SinkFunc or JSONLSink it cannot
// be shared or reused. Deliveries after the channel closes are dropped.
type ChanSink struct {
	c *sinkchan.Chan[Delivery]
}

// NewChanSink builds a channel sink with the given buffer capacity.
func NewChanSink(buffer int) *ChanSink {
	return &ChanSink{c: sinkchan.New[Delivery](buffer)}
}

// C is the delivery channel; it is closed when the subscription is
// cancelled or the session closes.
func (c *ChanSink) C() <-chan Delivery { return c.c.C() }

// Deliver sends d, blocking while the buffer is full.
func (c *ChanSink) Deliver(d Delivery) error {
	c.c.Send(d)
	return nil
}

func (c *ChanSink) bind(subDone, sessionDone <-chan struct{}) { c.c.Bind(subDone, sessionDone) }

func (c *ChanSink) closeSink() { c.c.Close() }

// JSONLSink writes one JSON object per delivery to w, one per line:
//
//	{"feed":0,"fid":41,"query":3,"objects":[7,9],"frames":[12,13,14]}
//
// feed, frame id, query id, the matched object ids in increasing order
// and the frames of joint presence. A nil Frames slice (and the zero
// object set) prints as null, an empty one as []; sparse and dense
// object sets print the same. The bytes are exactly what encoding/json
// produces for the same fields — the tests keep that encoder as the
// oracle — but the sink formats into one reused buffer without
// reflection and hands the writer one Write per delivery, so a warm
// sink allocates nothing. It only reads the delivery (Match.Frames is
// shared between matches) and is safe for use from multiple
// subscriptions at once.
//
// All matches of one state in one frame share its object set and its
// frame list, so the sink formats the objects and frames of a line once
// per state and frame and reuses those bytes for the state's other
// matches: a delivery whose Match.Frames is the same slice (same first
// element, same length) as an earlier delivery of the same feed and
// frame, with equal objects, is written from that earlier encoding.
// Only a sink shared by several subscriptions gets such deliveries; a
// sink of one query sees each state once per frame and encodes every
// line in full. The reuse relies on the read-only contract of Delivery:
// a caller building its own deliveries must not change a Frames slice
// it has delivered until it delivers another feed or frame.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte      // the line being built; reused
	ids []objset.ID // members of a dense object set; reused

	// The tail memo, scoped to one (feed, fid). buf[:head] holds that
	// scope's `{"feed":…,"fid":…,"query":`; head is 0 before the first
	// delivery.
	feed  FeedID
	fid   FrameID
	head  int
	memo  []tailEntry // the scope's states, in the order first seen; reused
	next  int         // where a lookup starts: after the last hit
	tails []byte      // their encoded tails, back to back; reused
}

// maxTails bounds one scope's memo, which a delivery scans in full when
// it misses. The most states one frame of the benchmark workloads
// brings to one sink is 35, on sparse-fanout; the mean is 1.2 to 5. A
// scope with more states starts the memo over, so a caller that never
// changes feed or frame neither grows the sink nor lengthens the scan
// without bound.
const maxTails = 64

// tailEntry is one encoded `,"objects":[…],"frames":[…]}` + newline.
// Holding the frame list's first element keeps its block alive, so no
// other list can be allocated at that address while the entry exists.
type tailEntry struct {
	frames   *FrameID
	n        int
	objects  objset.Set
	from, to int // the tail's bytes in JSONLSink.tails
}

// NewJSONLSink builds a JSONL writer sink over w. The sink does not
// close w; the caller owns it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Deliver encodes d as one JSON line and writes it with a single Write.
func (s *JSONLSink) Deliver(d Delivery) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.encode(d)
	_, err := s.w.Write(s.buf)
	return err
}

// encode leaves d's line in s.buf: the scope's head, the query id, and
// the tail, from the memo when d's state was already encoded in this
// scope. Empty object sets and frame lists always take the plain path,
// so null and [] stay apart.
func (s *JSONLSink) encode(d Delivery) {
	if s.head == 0 || d.Feed != s.feed || d.FID != s.fid {
		s.rescope(d.Feed, d.FID)
	}
	m := &d.Match
	b := strconv.AppendInt(s.buf[:s.head], int64(m.QueryID), 10)
	if len(m.Frames) == 0 || m.Objects.IsEmpty() {
		s.buf = s.appendTail(b, m)
		return
	}
	e := s.lookup(m)
	if e == nil {
		if len(s.memo) == maxTails {
			s.forget()
		}
		from := len(s.tails)
		s.tails = s.appendTail(s.tails, m)
		s.memo = append(s.memo, tailEntry{frames: &m.Frames[0], n: len(m.Frames), objects: m.Objects, from: from, to: len(s.tails)})
		e = &s.memo[len(s.memo)-1]
	}
	b = append(b, s.tails[e.from:e.to]...)
	s.buf = b
}

// lookup returns the memo entry of m's state — the same frame list,
// by its first element and length, and equal objects — or nil. Matches
// come sorted by query id, then object set, so a query's states arrive
// in about the order the memo first saw them; the scan starts after
// the last hit and wraps around.
func (s *JSONLSink) lookup(m *Match) *tailEntry {
	first := &m.Frames[0]
	for k, i := 0, s.next; k < len(s.memo); k, i = k+1, i+1 {
		if i == len(s.memo) {
			i = 0
		}
		if e := &s.memo[i]; e.frames == first && e.n == len(m.Frames) && e.objects.Equal(m.Objects) {
			s.next = i + 1
			return e
		}
	}
	return nil
}

// rescope starts the memo of a new (feed, fid) and writes its head.
func (s *JSONLSink) rescope(feed FeedID, fid FrameID) {
	s.forget()
	s.feed, s.fid = feed, fid
	b := append(s.buf[:0], `{"feed":`...)
	b = strconv.AppendInt(b, int64(feed), 10)
	b = append(b, `,"fid":`...)
	b = strconv.AppendInt(b, fid, 10)
	b = append(b, `,"query":`...)
	s.buf, s.head = b, len(b)
}

// forget empties the memo, releasing the frame lists it holds.
func (s *JSONLSink) forget() {
	clear(s.memo)
	s.memo, s.next = s.memo[:0], 0
	s.tails = s.tails[:0]
}

// appendTail appends m's `,"objects":[…],"frames":[…]}` and the newline.
func (s *JSONLSink) appendTail(b []byte, m *Match) []byte {
	b = append(b, `,"objects":`...)
	if objs := m.Objects; objs.Len() == 0 {
		// No members, so not the bitmap form: IDs is the stored slice,
		// and whether that is nil decides null or [].
		b = appendEmpty(b, objs.IDs() == nil)
	} else {
		s.ids = objs.AppendTo(s.ids[:0])
		b = append(b, '[')
		for i, id := range s.ids {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(id), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"frames":`...)
	if len(m.Frames) == 0 {
		b = appendEmpty(b, m.Frames == nil)
	} else {
		b = append(b, '[')
		b = appendFrameIDs(b, m.Frames)
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	return b
}

func appendEmpty(b []byte, isNil bool) []byte {
	if isNil {
		return append(b, "null"...)
	}
	return append(b, "[]"...)
}

// maxIDLen is the longest decimal rendering of a FrameID, sign included.
const maxIDLen = 20

// appendFrameIDs appends the ids (at least one) in decimal,
// comma-separated. A frame set is almost entirely runs of consecutive
// ids, so the loop is run aware: the first id of a run is formatted
// from its value; the last seven digits of what was written, and the
// comma after them, then stay packed in a register, first byte lowest,
// and every further id of the run is produced by incrementing the
// digits there and storing the register — no division, and no load of
// bytes just stored. A gap, a repeat, a descent, a negative id or a
// carry out of the packed digits (99 → 100) starts over from the value.
func appendFrameIDs(b []byte, fids []FrameID) []byte {
	// Reserve the worst case up front — every id at full width with its
	// comma, plus the slack an 8-byte store may spill into — so the loop
	// writes by index instead of through append.
	n := len(b)
	b = slices.Grow(b, (maxIDLen+1)*len(fids)+8)
	b = b[:cap(b)]
	for i := 0; i < len(fids); {
		fid := fids[i]
		at := n
		n = len(strconv.AppendInt(b[:n], fid, 10))
		b[n] = ','
		n++
		i++
		// No sign was written and no id of the run can overflow.
		if fid < 0 || fid > math.MaxInt64-FrameID(len(fids)) {
			continue
		}
		run := i
		for run < len(fids) && fids[run]-1 == fids[run-1] {
			run++
		}
		if run == i {
			continue
		}
		step := n - at           // digits and comma
		packed := min(step, 8)   // of them in the register ...
		lead := step - packed    // ... and before it, unchanged along the run
		ones := (packed - 2) * 8 // bit offset of the last digit
		tail := binary.LittleEndian.Uint64(b[n-packed:])
		for ; i < run; i++ {
			// Trailing nines become zeros, the digit before them goes up.
			pos := ones
			for pos >= 0 && byte(tail>>uint(pos)) == '9' {
				tail -= 9 << uint(pos)
				pos -= 8
			}
			if pos < 0 {
				break // the packed digits were all nines
			}
			tail += 1 << uint(pos)
			if lead > 0 {
				copy(b[n:n+lead], b[n-step:])
			}
			binary.LittleEndian.PutUint64(b[n+lead:], tail)
			n += step
		}
	}
	return b[:n-1] // the last comma
}
