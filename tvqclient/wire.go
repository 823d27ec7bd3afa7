package tvqclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"tvq"
	"tvq/internal/objset"
)

// The client reads two JSON shapes on its hot paths: a delivery line of
// a match stream and the ack of an ingest batch. The daemon writes both
// in one fixed form (tvq.JSONLSink and the server's appendAck): its keys
// in its order, no whitespace inside, integers as strconv writes them.
// readDelivery and readAck read exactly that form, without reflection.
// An input that departs from it at any byte goes whole to encoding/json,
// so every input decodes as json.Unmarshal decodes it into wireDelivery
// or batchResult (FuzzDecodeWire holds the readers to that).

// wireDelivery is a delivery line's fields.
type wireDelivery struct {
	Feed    int64         `json:"feed"`
	FID     int64         `json:"fid"`
	Query   int           `json:"query"`
	Objects []objset.ID   `json:"objects"`
	Frames  []tvq.FrameID `json:"frames"`
}

// decodeDelivery decodes one delivery line, the tvq.JSONLSink line
// format the daemon streams.
func decodeDelivery(line []byte) (tvq.Delivery, error) {
	w, ok := readDelivery(line)
	if !ok {
		var err error
		if w, err = unmarshal[wireDelivery](line); err != nil {
			return tvq.Delivery{}, fmt.Errorf("tvqclient: decode delivery %q: %w", bytes.TrimSpace(line), err)
		}
	}
	return tvq.Delivery{
		Feed: tvq.FeedID(w.Feed),
		FID:  w.FID,
		Match: tvq.Match{
			QueryID: w.Query,
			Objects: objectSet(w.Objects),
			Frames:  w.Frames,
		},
	}, nil
}

// readDelivery reads a line in the form tvq.JSONLSink writes:
//
//	{"feed":0,"fid":41,"query":3,"objects":[7,9],"frames":[12,13,14]}
//
// It reports false for anything else.
func readDelivery(line []byte) (d wireDelivery, ok bool) {
	r := reader{rest: line, ok: true}
	r.want(`{"feed":`)
	d.Feed = r.int(math.MaxInt64)
	r.want(`,"fid":`)
	d.FID = r.int(math.MaxInt64)
	r.want(`,"query":`)
	d.Query = int(r.int(math.MaxInt))
	r.want(`,"objects":`)
	d.Objects = list[objset.ID](&r, math.MaxUint32)
	r.want(`,"frames":`)
	d.Frames = list[tvq.FrameID](&r, math.MaxInt64)
	r.want("}")
	return d, r.end()
}

// objectSet builds the set of ids, taking ownership of the slice when
// the ids are strictly increasing, as the daemon writes them.
func objectSet(ids []objset.ID) objset.Set {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return objset.New(ids...)
		}
	}
	return objset.Compact(objset.FromSorted(ids))
}

// batchResult is the daemon's answer to one accepted ingest request.
type batchResult struct {
	Accepted int   `json:"accepted"`
	Matches  int   `json:"matches"`
	NextFID  int64 `json:"next_fid"`
}

// decodeAck decodes an ingest ack; keys other than accepted, matches
// and next_fid (a disordered session's late and reorder_depth) are
// skipped.
func decodeAck(body []byte) (batchResult, error) {
	if a, ok := readAck(body); ok {
		return a, nil
	}
	return unmarshal[batchResult](body)
}

// readAck reads an ack in the form the daemon writes, late and
// reorder_depth only for a disordered session:
//
//	{"accepted":8,"late":1,"matches":3,"next_fid":9,"reorder_depth":2}
//
// It reports false for anything else.
func readAck(body []byte) (a batchResult, ok bool) {
	r := reader{rest: body, ok: true}
	r.want(`{"accepted":`)
	a.Accepted = int(r.int(math.MaxInt))
	if r.take(`,"late":`) {
		r.uint(math.MaxUint64)
	}
	r.want(`,"matches":`)
	a.Matches = int(r.int(math.MaxInt))
	r.want(`,"next_fid":`)
	a.NextFID = r.int(math.MaxInt64)
	if r.take(`,"reorder_depth":`) {
		r.int(math.MaxInt)
	}
	r.want("}")
	return a, r.end()
}

// unmarshal decodes b into a new T with encoding/json.
func unmarshal[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// reader consumes an input in an exact form. The first byte that
// departs from it clears ok, and every later read is a no-op.
type reader struct {
	rest []byte // what is left to read
	ok   bool
}

// take reads lit if it is next.
func (r *reader) take(lit string) bool {
	if !r.ok || len(r.rest) < len(lit) || string(r.rest[:len(lit)]) != lit {
		return false
	}
	r.rest = r.rest[len(lit):]
	return true
}

// want reads lit, which must be next.
func (r *reader) want(lit string) {
	if !r.take(lit) {
		r.ok = false
	}
}

// uint reads a non-negative integer as strconv writes it — no sign, no
// leading zero — of at most max.
func (r *reader) uint(max uint64) uint64 {
	if !r.ok {
		return 0
	}
	var n uint64
	i := 0
	for ; i < len(r.rest) && '0' <= r.rest[i] && r.rest[i] <= '9'; i++ {
		d := uint64(r.rest[i] - '0')
		if n > (max-d)/10 {
			r.ok = false
			return 0
		}
		n = n*10 + d
	}
	if i == 0 || i > 1 && r.rest[0] == '0' {
		r.ok = false
		return 0
	}
	r.rest = r.rest[i:]
	return n
}

// int reads an integer as strconv writes it, in [-max-1, max]; strconv
// never writes -0.
func (r *reader) int(max uint64) int64 {
	if !r.take("-") {
		return int64(r.uint(max))
	}
	n := r.uint(max + 1)
	if n == 0 {
		r.ok = false
	}
	return -int64(n)
}

// list reads null, [] or [n,…] of integers of at most max (at least
// -max-1 when T is signed). The elements are counted first, so the
// slice is allocated once at its length.
func list[T objset.ID | tvq.FrameID](r *reader, max uint64) []T {
	if r.take("null") {
		return nil
	}
	r.want("[")
	if r.take("]") {
		return []T{}
	}
	end := bytes.IndexByte(r.rest, ']')
	if !r.ok || end < 0 {
		r.ok = false
		return nil
	}
	v := make([]T, 1+bytes.Count(r.rest[:end], []byte{','}))
	signed := ^T(0) < 0
	for i := range v {
		if i > 0 {
			r.want(",")
		}
		if signed {
			v[i] = T(r.int(max))
		} else {
			v[i] = T(r.uint(max))
		}
	}
	r.want("]")
	return v
}

// end reports whether the form was read in full, with nothing after it
// but JSON whitespace.
func (r *reader) end() bool {
	return r.ok && len(bytes.TrimLeft(r.rest, " \t\r\n")) == 0
}
