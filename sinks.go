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
// and must be treated as read-only.
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
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte      // the line being built; reused
	ids []objset.ID // members of a dense object set; reused
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

// encode leaves d's line in s.buf.
//
//tvq:noalloc
func (s *JSONLSink) encode(d Delivery) {
	b := s.buf[:0]
	b = append(b, `{"feed":`...)
	b = strconv.AppendInt(b, int64(d.Feed), 10)
	b = append(b, `,"fid":`...)
	b = strconv.AppendInt(b, d.FID, 10)
	b = append(b, `,"query":`...)
	b = strconv.AppendInt(b, int64(d.Match.QueryID), 10)
	b = append(b, `,"objects":`...)
	if objs := d.Match.Objects; objs.Len() == 0 {
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
	if len(d.Match.Frames) == 0 {
		b = appendEmpty(b, d.Match.Frames == nil)
	} else {
		b = append(b, '[')
		b = appendFrameIDs(b, d.Match.Frames)
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	s.buf = b
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
//
//tvq:noalloc
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
