package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// Frame logs (see frameLog) hand a state's frame list out again, slid
// and at most one frame longer, instead of filling a fresh one every
// pass. These tests hold them to what a fresh fill would give and to
// the result-lifetime contract: every element a handed-out list covers
// stays as it was, however long the match is held.

// heldMatch is a match kept past its pass, with the frames it had then.
type heldMatch struct {
	m    Match
	want []vr.FrameID
	at   int
}

// logStats counts, over a run, the matched states whose list came from
// the log the previous pass left (reused) and those given a fresh log.
type logStats struct{ reused, fresh int }

// driveFrameLogs runs gen over feed and evaluates with ev at every frame
// — or, tumbling, at the last frame of every window — numbering frames
// from start. Every Match.Frames must be exactly the state's frames as
// FillFrames writes them into fresh storage, capped at its length, and
// every match must be unchanged w frames later and at the end.
func driveFrameLogs(t testing.TB, gen core.Generator, ev *Evaluator, feed []vr.Frame, start vr.FrameID, tumbling bool) logStats {
	t.Helper()
	w := ev.Window()
	var st logStats
	var held []heldMatch
	checked := 0 // held matches before checked were checked w frames on
	for i, f := range feed {
		states := gen.Process(f)
		if tumbling && (i+1)%w != 0 {
			continue
		}
		before := make(map[*core.State]*vr.FrameID, len(ev.logs))
		for s, lg := range ev.logs {
			before[s] = unsafe.SliceData(lg.buf)
		}
		for _, m := range ev.EvaluateStatesFrom(states, classOf, start) {
			k, ok := slices.BinarySearchFunc(states, m.Objects, func(s *core.State, o objset.Set) int {
				return objset.Compare(s.Objects, o)
			})
			if !ok {
				t.Fatalf("frame %d: match of %v has no state", i, m.Objects)
			}
			want := make([]vr.FrameID, states[k].FrameCount())
			states[k].FillFrames(want, start)
			if !slices.Equal(m.Frames, want) {
				t.Fatalf("frame %d: %v holds frames %v, want %v", i, m.Objects, m.Frames, want)
			}
			if cap(m.Frames) != len(m.Frames) {
				t.Fatalf("frame %d: %v's frame list has capacity %d past its %d frames", i, m.Objects, cap(m.Frames), len(m.Frames))
			}
			held = append(held, heldMatch{m: m, want: want, at: i})
		}
		for s, lg := range ev.logs {
			if p, ok := before[s]; ok && p == unsafe.SliceData(lg.buf) {
				st.reused++
			} else {
				st.fresh++
			}
		}
		for ; checked < len(held) && held[checked].at <= i-w; checked++ {
			checkHeld(t, held[checked], i)
		}
	}
	for _, h := range held {
		checkHeld(t, h, len(feed))
	}
	return st
}

func checkHeld(t testing.TB, h heldMatch, now int) {
	t.Helper()
	if !slices.Equal(h.m.Frames, h.want) {
		t.Fatalf("frame %d: query %d's match of %v from frame %d now holds %v, had %v",
			now, h.m.QueryID, h.m.Objects, h.at, h.m.Frames, h.want)
	}
}

// persistentFeed returns n frames over objects 1…nobj in which each
// object stays present with probability 0.85 and reappears with 0.15,
// so object sets co-occur in long stretches with gaps between them.
func persistentFeed(rng *rand.Rand, n, nobj int) []vr.Frame {
	on := make([]bool, nobj)
	feed := make([]vr.Frame, n)
	for i := range feed {
		var ids []objset.ID
		for o := range on {
			if on[o] {
				on[o] = rng.Float64() < 0.85
			} else {
				on[o] = rng.Float64() < 0.15
			}
			if on[o] {
				ids = append(ids, objset.ID(o+1))
			}
		}
		feed[i] = vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)}
	}
	return feed
}

var logGenerators = []struct {
	name string
	new  func(core.Config) core.Generator
}{
	{"Naive", func(c core.Config) core.Generator { return core.NewNaive(c) }},
	{"MFS", func(c core.Config) core.Generator { return core.NewMFS(c) }},
	{"SSG", func(c core.Config) core.Generator { return core.NewSSG(c) }},
}

// TestFrameLogsModel: seeded traces through each generator, sliding and
// tumbling, from a group start of zero and past it.
func TestFrameLogsModel(t *testing.T) {
	const w = 24
	reg := vr.StandardRegistry()
	var total logStats
	for seed := int64(1); seed <= 4; seed++ {
		feed := persistentFeed(rand.New(rand.NewSource(seed)), 240, 9)
		for _, gen := range logGenerators {
			for _, tumbling := range []bool{false, true} {
				for _, start := range []vr.FrameID{0, 1000} {
					t.Run(fmt.Sprintf("seed%d/%s/tumbling=%v/start=%d", seed, gen.name, tumbling, start), func(t *testing.T) {
						ev, err := NewEvaluator(reg, nil)
						if err != nil {
							t.Fatal(err)
						}
						for id, text := range []string{"person >= 1", "car >= 1 AND person >= 1", "(person >= 2 OR car >= 3)"} {
							if err := ev.Add(mkQuery(t, id+1, text, w, 1+8*id)); err != nil {
								t.Fatal(err)
							}
						}
						st := driveFrameLogs(t, gen.new(core.Config{Window: w, Duration: 1}), ev, feed, start, tumbling)
						total.reused += st.reused
						total.fresh += st.fresh
					})
				}
			}
		}
	}
	// Both paths must run, or the model says nothing about one of them.
	if total.reused < total.fresh || total.fresh == 0 {
		t.Fatalf("%d lists from logs, %d fresh: the feeds do not exercise the logs", total.reused, total.fresh)
	}
}

// TestFrameLogRebuildsRecycledState plants, for a live state, the log a
// pooled State reused at the same address would find: its frames agree
// with the state's at both ends and in count, but not in between. The
// evaluator must fill a fresh list and leave the planted one as it was;
// likewise for a log in another numbering (another group start).
func TestFrameLogRebuildsRecycledState(t *testing.T) {
	// {1 2} co-occurs in frames 0 1 2 and 5 6; 3 and 4 hold only 1.
	sets := []objset.Set{
		objset.New(1, 2), objset.New(1, 2), objset.New(1, 2),
		objset.New(1), objset.New(1),
		objset.New(1, 2), objset.New(1, 2),
	}
	states := buildStates(t, sets, 10, 1)
	var s *core.State
	for _, st := range states {
		if st.Objects.Equal(objset.New(1, 2)) {
			s = st
		}
	}
	if s == nil || !slices.Equal(s.Frames(), []vr.FrameID{0, 1, 2, 5, 6}) {
		t.Fatalf("states %v: want {1 2} over 0 1 2 5 6", states)
	}
	for _, tc := range []struct {
		name    string
		planted []vr.FrameID
		start   vr.FrameID
	}{
		{"same ends", []vr.FrameID{0, 1, 3, 5, 6}, 0},
		{"same ends, one frame short", []vr.FrameID{0, 1, 3, 5}, 0},
		{"other start", []vr.FrameID{0, 1, 2, 5, 6}, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := NewEvaluator(vr.StandardRegistry(), []cnf.Query{mkQuery(t, 1, "person >= 1", 10, 1)})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]vr.FrameID, len(tc.planted), 2*len(tc.planted))
			copy(buf, tc.planted)
			ev.logs[s] = frameLog{buf: buf}
			want := make([]vr.FrameID, s.FrameCount())
			s.FillFrames(want, tc.start)
			for _, m := range ev.EvaluateStatesFrom(states, classOf, tc.start) {
				if !m.Objects.Equal(s.Objects) {
					continue
				}
				if !slices.Equal(m.Frames, want) {
					t.Fatalf("%v holds %v, want %v", m.Objects, m.Frames, want)
				}
				if unsafe.SliceData(m.Frames) == unsafe.SliceData(buf) {
					t.Fatal("the planted log was handed out")
				}
			}
			if !slices.Equal(buf[:cap(buf)], append(slices.Clone(tc.planted), make([]vr.FrameID, len(tc.planted))...)) {
				t.Fatalf("the planted log was written: %v", buf[:cap(buf)])
			}
		})
	}
}

// FuzzFrameLogs drives the lists of a few states — a feed over four
// objects, one byte a frame — through expiry, appends, the out-of-order
// merges a newly created state absorbs, and the recycling of dead
// states, for each generator, sliding or tumbling, against a fresh
// fill. data[0] sets the window, data[1] the duration, data[2] the
// generator (bits 0–1), tumbling (bit 2) and the group start (the rest).
func FuzzFrameLogs(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0x3, 0x3, 0x3, 0x1, 0x3, 0x3, 0x7, 0x7, 0xf, 0x3, 0x3, 0x3, 0x3})
	f.Add([]byte{3, 0, 2, 0xf, 0xe, 0xd, 0xb, 0x7, 0xf, 0xf, 0x1, 0x1, 0x3, 0x3, 0x3, 0x3})
	f.Add([]byte{7, 2, 0x11, 0x3, 0x3, 0x0, 0x3, 0x3, 0x0, 0x3, 0x3, 0x3, 0x3, 0x3, 0x3, 0x3, 0x3})
	f.Add([]byte{4, 1, 0x06, 0x5, 0x5, 0x5, 0x5, 0xd, 0xd, 0x5, 0x5, 0x5, 0x5, 0x5, 0x5})
	f.Add([]byte{0, 0, 0x01, 0x1, 0x1, 0x3, 0x1, 0x1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w := 1 + int(data[0])%16
		d := int(data[1]) % (w + 1)
		gen := logGenerators[int(data[2]&3)%len(logGenerators)]
		tumbling := data[2]&4 != 0
		start := vr.FrameID(data[2] >> 3)
		masks := data[3:]
		if len(masks) > 256 {
			masks = masks[:256]
		}
		feed := make([]vr.Frame, len(masks))
		for i, m := range masks {
			var ids []objset.ID
			for b := 0; b < 4; b++ {
				if m&(1<<b) != 0 {
					ids = append(ids, objset.ID(1+b))
				}
			}
			feed[i] = vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)}
		}
		ev, err := NewEvaluator(vr.StandardRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for id, text := range []string{"person >= 1", "car >= 1"} {
			if err := ev.Add(mkQuery(t, id+1, text, w, d)); err != nil {
				t.Fatal(err)
			}
		}
		driveFrameLogs(t, gen.new(core.Config{Window: w, Duration: d}), ev, feed, start, tumbling)
	})
}

// TestFrameLogGrowthAllocs pins the cost of a state that gains one
// frame a call: the []Match is the call's only allocation while the
// state's log has room for the new frame, and a full log costs one
// more, a fresh log twice the list's length. The window fills halfway
// through, after which the list also drops a frame a call.
func TestFrameLogGrowthAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const w = 64
	ev, err := NewEvaluator(vr.StandardRegistry(), []cnf.Query{mkQuery(t, 1, "person >= 1", w, 1)})
	if err != nil {
		t.Fatal(err)
	}
	gen := core.NewMFS(core.Config{Window: w, Duration: 1})
	var before, after runtime.MemStats
	var extended, refilled int
	for i := range 4 * w {
		states := gen.Process(vr.Frame{FID: vr.FrameID(i), Objects: objset.New(1, 2)})
		if len(states) != 1 {
			t.Fatalf("frame %d: %d states, want {1 2} alone", i, len(states))
		}
		lg, logged := ev.logs[states[0]]
		full := !logged || len(lg.buf) == cap(lg.buf)
		runtime.ReadMemStats(&before)
		out := ev.EvaluateStates(states, classOf)
		runtime.ReadMemStats(&after)
		if len(out) != 1 || len(out[0].Frames) != min(i+1, w) {
			t.Fatalf("frame %d: %d matches, want one over %d frames", i, len(out), min(i+1, w))
		}
		if i < 4 {
			continue // the class counts, the log maps and the first logs
		}
		want := uint64(1)
		if full {
			want, refilled = 2, refilled+1
		} else {
			extended++
		}
		if got := after.Mallocs - before.Mallocs; got != want {
			t.Fatalf("frame %d: %d allocations, want %d (log %d of %d)", i, got, want, len(lg.buf), cap(lg.buf))
		}
	}
	if refilled == 0 || extended < 20*refilled {
		t.Fatalf("%d calls extended a log, %d refilled one", extended, refilled)
	}
}
