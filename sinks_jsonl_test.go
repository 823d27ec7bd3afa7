package tvq_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"weak"

	"tvq"
	"tvq/internal/objset"
)

// The JSONL sink's hand-written encoder against the encoder it
// replaced: encoding/json over the struct below is the oracle, and the
// sink must reproduce its bytes exactly — null for a nil slice, [] for
// an empty one, the same digits for every integer.

// jsonlMatch is the serialized form of one delivery, as JSONLSink
// declared it while it still encoded through reflection.
type jsonlMatch struct {
	Feed    int64         `json:"feed"`
	FID     int64         `json:"fid"`
	Query   int           `json:"query"`
	Objects []uint32      `json:"objects"`
	Frames  []tvq.FrameID `json:"frames"`
}

func referenceJSONL(t testing.TB, d tvq.Delivery) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(jsonlMatch{
		Feed:    int64(d.Feed),
		FID:     d.FID,
		Query:   d.Match.QueryID,
		Objects: d.Match.Objects.IDs(),
		Frames:  d.Match.Frames,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkJSONL delivers d through a sink that has already written other
// lines (so the reused buffer holds stale bytes) and compares with the
// oracle.
func checkJSONL(t testing.TB, sink *tvq.JSONLSink, out *bytes.Buffer, d tvq.Delivery) {
	t.Helper()
	out.Reset()
	if err := sink.Deliver(d); err != nil {
		t.Fatal(err)
	}
	if want := referenceJSONL(t, d); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("delivery %+v:\n got %s\nwant %s", d, out.Bytes(), want)
	}
}

func seq(from tvq.FrameID, n int) []tvq.FrameID {
	out := make([]tvq.FrameID, n)
	for i := range out {
		out[i] = from + tvq.FrameID(i)
	}
	return out
}

// denseSet is a set Compact stores as a bitmap.
func denseSet(t testing.TB) objset.Set {
	t.Helper()
	ids := make([]objset.ID, 40)
	for i := range ids {
		ids[i] = objset.ID(130 + i + i/7)
	}
	dense := objset.Compact(objset.FromSorted(ids))
	if sparse := objset.FromSorted(ids); fmt.Sprintf("%#v", dense) == fmt.Sprintf("%#v", sparse) {
		t.Fatal("Compact kept the sparse form; pick denser ids")
	}
	return dense
}

func TestJSONLSinkMatchesEncodingJSON(t *testing.T) {
	// objset normalizes every empty result to the zero Set, so null is
	// the only rendering of "no objects" its constructors can reach.
	objects := map[string]objset.Set{
		"zero":   {},
		"empty":  objset.New(1).Intersect(objset.New(2)),
		"one":    objset.New(7),
		"sparse": objset.New(3, 1000, 70000, math.MaxUint32),
		"dense":  denseSet(t),
	}
	frames := map[string][]tvq.FrameID{
		"nil":         nil,
		"empty":       {},
		"single":      {41},
		"run":         seq(0, 130),
		"negative":    seq(-12, 30), // descending magnitudes, then the −1→0 step, then a run
		"min":         {math.MinInt64, math.MinInt64 + 1, -1, 0, 1},
		"gaps":        {1, 3, 4, 5, 9, 10, 20, 21, 22, 1000, 1001},
		"repeats":     {5, 5, 6, 6, 6, 7},
		"descending":  {10, 9, 8, 8, 9, 10, 11, 3},
		"max":         {math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64},
		"wrap":        {math.MaxInt64, math.MinInt64, math.MinInt64 + 1}, // MaxInt64+1 wraps to MinInt64: not a run
		"zero then 1": {0, 1, 2},
		// A carry that leaves the packed digits and changes the ones kept
		// beside them.
		"wide carry":  seq(19999990, 20),
		"wider carry": seq(1099999990, 20),
	}
	// Runs crossing 9→10, 99→100, … every power of ten an int64 holds.
	for p, k := tvq.FrameID(10), 1; k <= 18; p, k = p*10, k+1 {
		frames[fmt.Sprintf("cross 1e%d", k)] = seq(p-12, 25)
	}

	var out bytes.Buffer
	sink := tvq.NewJSONLSink(&out)
	// Leave stale bytes of a long line in the reused buffer first.
	checkJSONL(t, sink, &out, tvq.Delivery{Match: tvq.Match{Objects: objects["dense"], Frames: seq(99990, 400)}})
	for on, objs := range objects {
		for fn, fids := range frames {
			for _, hdr := range []tvq.Delivery{
				{Feed: 0, FID: 0},
				{Feed: 3, FID: 1199},
				{Feed: -7, FID: -1},
				{Feed: math.MaxInt32, FID: math.MaxInt64},
				{Feed: math.MinInt32, FID: math.MinInt64},
			} {
				for _, qid := range []int{0, 1, 999, -4, math.MaxInt64, math.MinInt64} {
					d := hdr
					d.Match = tvq.Match{QueryID: qid, Objects: objs, Frames: fids}
					t.Run(fmt.Sprintf("%s/%s", on, fn), func(t *testing.T) { checkJSONL(t, sink, &out, d) })
				}
			}
		}
	}
}

// writeCounter counts Write calls; the sink must hand each delivery to
// its writer whole (taps, digests and HTTP chunks count on it).
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestJSONLSinkDeliverWarmAllocsAndWrites: a warm sink allocates
// nothing and writes each line whole, whether the line's objects and
// frames come from the memo (hit), are encoded anew in the same frame
// (miss: every delivery brings another block, from more blocks than the
// memo keeps, so the memo also fills and starts over), or a new frame
// begins with every delivery (frame change).
func TestJSONLSinkDeliverWarmAllocsAndWrites(t *testing.T) {
	const runs = 200
	frames := seq(983, 60)
	blocks := make([][]tvq.FrameID, 100)
	for i := range blocks {
		blocks[i] = seq(983, 60-i%2)
	}
	paths := map[string]func(d *tvq.Delivery, i int){
		"hit": func(d *tvq.Delivery, i int) { d.Match.QueryID = 77 + i%5 },
		"miss": func(d *tvq.Delivery, i int) {
			d.Match.QueryID = 77 + i%5
			d.Match.Frames = blocks[i%len(blocks)]
		},
		"frame change": func(d *tvq.Delivery, i int) { d.FID = 1042 + tvq.FrameID(i) },
	}
	for name, objs := range map[string]objset.Set{
		"sparse": objset.New(4, 9, 17),
		"dense":  denseSet(t),
	} {
		t.Run(name, func(t *testing.T) {
			for path, vary := range paths {
				t.Run(path, func(t *testing.T) {
					var w writeCounter
					sink := tvq.NewJSONLSink(&w)
					var d tvq.Delivery
					i := 0
					next := func() tvq.Delivery {
						d = tvq.Delivery{Feed: 1, FID: 1042, Match: tvq.Match{QueryID: 77, Objects: objs, Frames: frames}}
						vary(&d, i)
						i++
						return d
					}
					// Warm: the buffers, the memo's arena included, reach their size.
					for range 1000 {
						if err := sink.Deliver(next()); err != nil {
							t.Fatal(err)
						}
					}
					w, i = writeCounter{}, 0
					allocs := testing.AllocsPerRun(runs, func() {
						if err := sink.Deliver(next()); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Errorf("warm Deliver allocates %.1f times per call, want 0", allocs)
					}
					// AllocsPerRun makes one extra warm-up call.
					want := 0
					for i = 0; i < runs+1; {
						want += len(referenceJSONL(t, next()))
					}
					if w.writes != runs+1 || w.bytes != want {
						t.Errorf("%d writes of %d bytes for %d deliveries of %d bytes", w.writes, w.bytes, runs+1, want)
					}
				})
			}
		})
	}
}

// recorder keeps every Write as its own line.
type recorder struct{ lines []string }

func (r *recorder) Write(p []byte) (int, error) {
	r.lines = append(r.lines, string(p))
	return len(p), nil
}

// TestJSONLSinkInterleavedFeeds: one sink taking the deliveries of two
// feeds, interleaved match by match, writes each line exactly as a sink
// of that feed alone does — including when both feeds deliver the same
// frame id and the second feed's matches reuse the first's frame lists.
func TestJSONLSinkInterleavedFeeds(t *testing.T) {
	var shared recorder
	var alone [2]recorder
	sink := tvq.NewJSONLSink(&shared)
	sinks := [2]*tvq.JSONLSink{tvq.NewJSONLSink(&alone[0]), tvq.NewJSONLSink(&alone[1])}
	objs := []objset.Set{objset.New(3, 8), denseSet(t), objset.New(3, 8, 11)}
	for fid := tvq.FrameID(100); fid < 106; fid++ {
		// One block of frame ids per feed and frame, as the evaluator
		// makes it: three states' lists back to back.
		var lists [2][][]tvq.FrameID
		for feed := range lists {
			block := seq(fid-40, 30)
			lists[feed] = [][]tvq.FrameID{block[:10:10], block[10:20:20], block[20:]}
		}
		if fid%2 == 1 {
			lists[1] = lists[0]
		}
		for q := range 4 {
			for st := range 3 {
				for feed := range 2 {
					d := tvq.Delivery{
						Feed:  tvq.FeedID(feed),
						FID:   fid,
						Match: tvq.Match{QueryID: q, Objects: objs[(st+feed)%3], Frames: lists[feed][st]},
					}
					n := len(shared.lines)
					if err := sink.Deliver(d); err != nil {
						t.Fatal(err)
					}
					if err := sinks[feed].Deliver(d); err != nil {
						t.Fatal(err)
					}
					got, want := shared.lines[n], alone[feed].lines[len(alone[feed].lines)-1]
					if got != want {
						t.Fatalf("feed %d frame %d query %d state %d:\n got %s\nwant %s", feed, fid, q, st, got, want)
					}
					if ref := string(referenceJSONL(t, d)); got != ref {
						t.Fatalf("feed %d frame %d query %d state %d:\n got %s\nwant %s", feed, fid, q, st, got, ref)
					}
				}
			}
		}
	}
}

// TestJSONLSinkPinsFewFrameLists: the sink keeps the frame lists it
// reuses alive, but a frame of 1000 states keeps at most the memo's
// cap of them, and the next frame releases them all.
func TestJSONLSinkPinsFewFrameLists(t *testing.T) {
	sink := tvq.NewJSONLSink(io.Discard)
	objs := objset.New(4, 9, 17)
	var lists []weak.Pointer[tvq.FrameID]
	deliver := func(fid tvq.FrameID, query int) {
		frames := seq(983, 60)
		lists = append(lists, weak.Make(&frames[0]))
		if err := sink.Deliver(tvq.Delivery{FID: fid, Match: tvq.Match{QueryID: query, Objects: objs, Frames: frames}}); err != nil {
			t.Fatal(err)
		}
	}
	alive := func() (n int) {
		runtime.GC()
		for _, p := range lists {
			if p.Value() != nil {
				n++
			}
		}
		return n
	}
	for q := range 1000 {
		deliver(1042, q)
	}
	if n := alive(); n > 100 {
		t.Errorf("a frame of 1000 states keeps %d frame lists alive, want at most 100", n)
	}
	deliver(1043, 0)
	if n := alive(); n != 1 {
		t.Errorf("%d frame lists alive after the next frame began, want only its own", n)
	}
	runtime.KeepAlive(sink)
}

// fuzzDelivery decodes a fuzz input into a delivery. objs is a list of
// little-endian uint32 ids (objset.New sorts and deduplicates them and
// stores long dense lists as bitmaps); prog is a byte program over the
// frame list, starting at start: the low two bits of each byte choose
// step +1 (a run), jump ahead, repeat or fall back, the high six the
// distance. emptyFrames makes a frame list without steps [] instead of
// nil.
func fuzzDelivery(feed, fid, query, start int64, emptyFrames bool, objs, prog []byte) tvq.Delivery {
	var set objset.Set
	if len(objs) >= 4 {
		ids := make([]objset.ID, 0, len(objs)/4)
		for ; len(objs) >= 4; objs = objs[4:] {
			ids = append(ids, binary.LittleEndian.Uint32(objs))
		}
		set = objset.New(ids...)
	}
	var frames []tvq.FrameID
	if emptyFrames {
		frames = []tvq.FrameID{}
	}
	cur := start
	for _, op := range prog {
		frames = append(frames, cur)
		switch dist := int64(op >> 2); op & 3 {
		case 0:
			cur++
		case 1:
			cur += 2 + dist*dist*dist*977
		case 2:
		case 3:
			cur -= 1 + dist
		}
	}
	return tvq.Delivery{Feed: tvq.FeedID(feed), FID: fid, Match: tvq.Match{QueryID: int(query), Objects: set, Frames: frames}}
}

func FuzzJSONLDelivery(f *testing.F) {
	// The rest of the seed corpus is checked in under
	// testdata/fuzz/FuzzJSONLDelivery: runs across powers of ten and into
	// MaxInt64, negative ids, dense object sets, gaps, repeats, descents.
	f.Add(int64(0), int64(12), int64(3), int64(0), false, binary.LittleEndian.AppendUint32(nil, 7), bytes.Repeat([]byte{0}, 40))

	f.Fuzz(func(t *testing.T, feed, fid, query, start int64, emptyFrames bool, objs, prog []byte) {
		if len(objs) > 4<<10 || len(prog) > 4<<10 {
			t.Skip()
		}
		d := fuzzDelivery(feed, fid, query, start, emptyFrames, objs, prog)
		var out bytes.Buffer
		sink := tvq.NewJSONLSink(&out)
		checkJSONL(t, sink, &out, d)
		checkJSONL(t, sink, &out, d) // again, over its own stale bytes

		// A second delivery sharing d's frame list, as another match of
		// the same state (or a later frame reusing a block) would: the
		// same start with the same or a shorter length, the same or other
		// objects, and another query, frame or feed. Then d once more.
		other := d.Match.Objects.Union(objset.New(5))
		for _, shorter := range []bool{false, true} {
			for _, objects := range []objset.Set{d.Match.Objects, other} {
				for header := range 3 {
					alias := d
					alias.Match.Objects = objects
					if n := len(d.Match.Frames); shorter && n > 0 {
						alias.Match.Frames = d.Match.Frames[:n/2]
					}
					alias.Match.QueryID++
					switch header {
					case 1:
						alias.FID++
					case 2:
						alias.Feed++
					}
					sink := tvq.NewJSONLSink(&out)
					checkJSONL(t, sink, &out, d)
					checkJSONL(t, sink, &out, alias)
					checkJSONL(t, sink, &out, d)
				}
			}
		}
	})
}
