package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// randomCoreFrames builds a random object stream for generator tests.
func randomCoreFrames(rng *rand.Rand, frames, maxObjects int) []vr.Frame {
	out := make([]vr.Frame, frames)
	alive := make(map[objset.ID]bool)
	for fid := 0; fid < frames; fid++ {
		for id := objset.ID(0); id < objset.ID(maxObjects); id++ {
			switch {
			case alive[id] && rng.Float64() < 0.2:
				delete(alive, id)
			case !alive[id] && rng.Float64() < 0.25:
				alive[id] = true
			}
		}
		var ids []objset.ID
		for id := range alive {
			ids = append(ids, id)
		}
		out[fid] = vr.Frame{FID: vr.FrameID(fid), Objects: objset.New(ids...)}
	}
	return out
}

func statesString(states []*State) string {
	parts := make([]string, len(states))
	for i, s := range states {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ; ")
}

// roundTrip decodes a generator snapshot, encodes what it decoded and
// requires the same bytes with nothing left over: a field written but
// not restored re-encodes as zero, and one restored but not written
// misreads everything after it. It returns the decoded generator, which
// the caller runs on for at least w more frames against an uninterrupted
// twin.
func roundTrip(t *testing.T, data []byte, cfg Config) Generator {
	t.Helper()
	r := snapshot.NewReader(data)
	g, err := DecodeGenerator(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%s: decode left %d of %d bytes unread", g.Name(), r.Remaining(), len(data))
	}
	var w snapshot.Writer
	if err := EncodeGenerator(&w, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), data) {
		t.Fatalf("%s: re-encoding a decoded snapshot changed it (%d bytes, was %d)", g.Name(), len(w.Bytes()), len(data))
	}
	if s, ok := g.(*SSG); ok {
		checkGraphInvariants(t, s)
	}
	return g
}

// generatorStates returns g's live states.
func generatorStates(g Generator) []*State {
	var out []*State
	switch g := g.(type) {
	case *Naive:
		out = g.states
	case *MFS:
		out = g.states
	case *SSG:
		for _, n := range g.nodes {
			if n != nil {
				out = append(out, n.state)
			}
		}
	}
	return slices.DeleteFunc(slices.Clone(out), func(s *State) bool { return s == nil })
}

// TestGeneratorSnapshotResume snapshots every generator kind mid-stream,
// round-trips the snapshot, and verifies the resumed run emits exactly
// what the uninterrupted run emits, frame by frame, for at least w more
// frames. Between them the cases make every field the codec writes
// non-zero: pruned and terminated counts, rest-closure blockers, marks.
func TestGeneratorSnapshotResume(t *testing.T) {
	kinds := []struct {
		name string
		make func(Config) Generator
	}{
		{"naive", func(c Config) Generator { return NewNaive(c) }},
		{"mfs", func(c Config) Generator { return NewMFS(c) }},
		{"ssg", func(c Config) Generator { return NewSSG(c) }},
	}
	configs := []Config{
		{Window: 1, Duration: 1},
		{Window: 5, Duration: 2},
		{Window: 8, Duration: 4},
		{Window: 8, Duration: 3, Terminate: terminateVariant(3)},
	}
	var pruned, terminated, extra bool
	for _, kind := range kinds {
		for _, cfg := range configs {
			name := fmt.Sprintf("%s/w%d-d%d", kind.name, cfg.Window, cfg.Duration)
			if cfg.Terminate != nil {
				name += "-terminate"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				frames := randomCoreFrames(rng, 60, 8)
				cut := 29

				full := kind.make(cfg)
				resumed := kind.make(cfg)
				for _, f := range frames[:cut] {
					full.Process(f)
					resumed.Process(f)
				}

				var w snapshot.Writer
				if err := EncodeGenerator(&w, resumed); err != nil {
					t.Fatal(err)
				}
				restored := roundTrip(t, w.Bytes(), cfg)
				if restored.Name() != full.Name() {
					t.Fatalf("restored kind %q, want %q", restored.Name(), full.Name())
				}
				if restored.StateCount() != resumed.StateCount() {
					t.Fatalf("restored StateCount = %d, want %d", restored.StateCount(), resumed.StateCount())
				}
				m := restored.(interface{ Metrics() Metrics }).Metrics()
				pruned = pruned || m.StatesPruned > 0
				terminated = terminated || m.StatesTerminated > 0
				for _, s := range generatorStates(restored) {
					extra = extra || s.frames.hasExtra
				}

				for _, f := range frames[cut:] {
					want := statesString(full.Process(f))
					got := statesString(restored.Process(f))
					if got != want {
						t.Fatalf("frame %d diverged after restore:\n got  %s\n want %s", f.FID, got, want)
					}
				}
			})
		}
	}
	if !pruned || !terminated || !extra {
		t.Errorf("no case snapshotted a pruned count (%v), a terminated count (%v) or blockers (%v)", pruned, terminated, extra)
	}
}

// resumeAt snapshots a generator fed feed[:cut], restores it, and checks
// that the restored generator emits what an uninterrupted one emits for
// the rest of the feed: the same object sets over the same frames. Key
// frame marks are not compared. Which of a state's frames are marked
// depends on the order its parents reach it, and the decoded graph lists
// children, roots and the last frame's folded nodes in another order
// than the uninterrupted run.
func resumeAt(t *testing.T, cfg Config, feed []vr.Frame, cut int) {
	t.Helper()
	full, cutGen := NewSSG(cfg), NewSSG(cfg)
	for _, f := range feed[:cut] {
		full.Process(f)
		cutGen.Process(f)
	}
	var w snapshot.Writer
	if err := EncodeGenerator(&w, cutGen); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, w.Bytes(), cfg)
	resumeFrom(t, cfg, feed, cut, full, w.Bytes())
}

// resumeFrom decodes data, an SSG snapshot taken after feed[:cut], and
// checks that it goes on to emit what full, fed the same prefix, emits
// for the rest of the feed.
func resumeFrom(t *testing.T, cfg Config, feed []vr.Frame, cut int, full *SSG, data []byte) {
	t.Helper()
	restored, err := DecodeGenerator(snapshot.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[cut:] {
		want := fmt.Sprint(resultMap(full.Process(f)))
		if got := fmt.Sprint(resultMap(restored.Process(f))); got != want {
			t.Fatalf("w=%d d=%d cut %d: frame %d diverged after restore:\n got  %s\n want %s",
				cfg.Window, cfg.Duration, cut, f.FID, got, want)
		}
	}
}

// TestSSGSnapshotAtQuietCuts cuts coherent feeds where SSG carries the
// most from one frame to the next: right after a run of frames that
// brought no arrival, where the next frame is maintained from the list
// of nodes the last frame was folded into alone — a list the snapshot
// does not hold and decode must rebuild — and right after an empty
// frame, where that list is empty and the next frame is all arrivals. A
// decoder that leaves the list empty loses states at the first kind of
// cut; the cuts of TestGeneratorSnapshotResume (i.i.d. feeds, where
// nearly every frame brings an arrival) do not notice.
func TestSSGSnapshotAtQuietCuts(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	quiet, empty := 0, 0
	for trial := 0; trial < 40; trial++ {
		cfg := Config{Window: 2 + r.Intn(39), Terminate: terminateVariant(trial)}
		cfg.Duration = r.Intn(cfg.Window + 1)
		feed := flickerFeed(r, 3*cfg.Window+20, 5+r.Intn(4))
		afterQuiet, afterEmpty := quietCuts(feed)
		for _, cuts := range [][]int{afterQuiet, afterEmpty} {
			// Up to three cuts of each kind, spread over the feed.
			for i := 0; i < 3 && i < len(cuts); i++ {
				if cut := cuts[i*len(cuts)/3]; cut < len(feed) {
					resumeAt(t, cfg, feed, cut)
				}
			}
		}
		quiet += len(afterQuiet)
		empty += len(afterEmpty)
	}
	if quiet == 0 || empty == 0 {
		t.Fatalf("feeds offered %d cuts after quiet runs and %d after empty frames", quiet, empty)
	}
}

// graphDump renders every node of g in handle order with its frame
// entries and marks, including those that left the window but were not
// yet expired, and its edges.
func graphDump(g *SSG) string {
	var b strings.Builder
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		fmt.Fprintf(&b, "%s children", n.state)
		for _, c := range n.children {
			fmt.Fprintf(&b, " %s", c.state.Objects)
		}
		b.WriteString(" parents")
		for _, p := range n.parents {
			fmt.Fprintf(&b, " %s", p.state.Objects)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSSGSnapshotHoldsNoExpiredFrames pins that a snapshot is read-only
// and holds only what the window needs. A node no frame reaches keeps
// frame ids that left the window until something expires them; encoding
// must skip them rather than expire them. After 3·w frames without an
// arrival (eight objects that leave one by one, the last of them less
// than w frames before the cut), the snapshot must hold no frame id
// below the window and no state without a key frame in it, and exactly
// the generator's states; encoding must leave every node, mark and edge
// as it was, encode the same bytes twice, and not change what the
// generator goes on to emit.
func TestSSGSnapshotHoldsNoExpiredFrames(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		// d = w keeps nodes out of the result set, whose members are
		// expired every frame whether or not the traversal reaches them.
		cfg := Config{Window: 8 + r.Intn(60)}
		cfg.Duration = cfg.Window
		feed := flickerFeed(r, 2*cfg.Window, 8)
		ids := []objset.ID{1, 2, 3, 4, 5, 6, 7, 8}
		for n := 0; n < 3*cfg.Window; n++ {
			if len(ids) > 1 && n%(3*cfg.Window/8) == 3*cfg.Window/8-1 {
				ids = ids[:len(ids)-1]
			}
			feed = append(feed, vr.Frame{FID: vr.FrameID(len(feed)), Objects: objset.New(ids...)})
		}

		g, plain := NewSSG(cfg), NewSSG(cfg)
		for _, f := range feed {
			g.Process(f)
			plain.Process(f)
		}
		before := graphDump(g)
		var w, again snapshot.Writer
		if err := EncodeGenerator(&w, g); err != nil {
			t.Fatal(err)
		}
		if after := graphDump(g); after != before {
			t.Fatalf("trial %d (w=%d): encoding changed the generator:\n before\n%s after\n%s", trial, cfg.Window, before, after)
		}
		if err := EncodeGenerator(&again, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), again.Bytes()) {
			t.Errorf("trial %d (w=%d): a second encoding differs from the first", trial, cfg.Window)
		}
		restored, err := DecodeGenerator(snapshot.NewReader(w.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		minFID := vr.FrameID(len(feed) - cfg.Window)
		for _, n := range restored.(*SSG).nodes {
			if n == nil {
				continue
			}
			if fl := n.state.frames.live(); len(fl) == 0 || fl[0].fid() < minFID || !n.state.Valid() {
				t.Fatalf("trial %d (w=%d): snapshot holds stale state %v; window starts at %d", trial, cfg.Window, n.state, minFID)
			}
		}
		if restored.StateCount() != g.StateCount() {
			t.Errorf("trial %d (w=%d): snapshot holds %d states, the generator %d", trial, cfg.Window, restored.StateCount(), g.StateCount())
		}
		next := vr.Frame{FID: vr.FrameID(len(feed)), Objects: objset.New(ids...)}
		if got, want := fmt.Sprint(resultMap(g.Process(next))), fmt.Sprint(resultMap(plain.Process(next))); got != want {
			t.Errorf("trial %d: encoding changed the next frame's results:\n got  %s\n want %s", trial, got, want)
		}
	}
}

// TestSSGDecodeRejectsNodeWithoutKeyFrame: a node is valid while it has
// a key frame in the window (Theorem 1), and the expiry ring files every
// node under its newest one, so a snapshot node with no key frame is
// malformed, and so is any frame id not yet processed.
// No generator produces such a node, so the test rewrites the frames of
// one in a live generator before encoding it: marks cleared, a marked
// frame id below zero, and one not yet processed. A cut before w frames
// leaves the window reaching below frame 0, which no mark may index.
func TestSSGDecodeRejectsNodeWithoutKeyFrame(t *testing.T) {
	cases := []struct {
		name           string
		window, frames int
		entries        func(live []frameEntry, next vr.FrameID) []frameEntry
		want           string
	}{
		{"unmarked", 6, 40, unmarked, "no key frame"},
		{"unmarked before w frames", 20, 5, unmarked, "no key frame"},
		{"negative mark", 20, 5, func([]frameEntry, vr.FrameID) []frameEntry {
			return []frameEntry{newFrameEntry(-3, true)}
		}, "no key frame"},
		{"mark not yet processed", 6, 40, func(_ []frameEntry, next vr.FrameID) []frameEntry {
			return []frameEntry{newFrameEntry(next, true)}
		}, "not before frame 40"},
	}
	for _, tc := range cases {
		cfg := Config{Window: tc.window, Duration: 2}
		g := NewSSG(cfg)
		for _, f := range flickerFeed(rand.New(rand.NewSource(37)), tc.frames, 6) {
			g.Process(f)
		}
		var victim *State
		for _, n := range g.nodes {
			if n != nil {
				victim = n.state
				break
			}
		}
		if victim == nil {
			t.Fatalf("%s: feed left no states", tc.name)
		}
		victim.frames.entries = tc.entries(victim.frames.live(), g.window.next)
		victim.frames.head, victim.frames.marks = 0, 0
		for _, e := range victim.frames.entries {
			if e.marked() {
				victim.frames.marks++
			}
		}
		var w snapshot.Writer
		if err := EncodeGenerator(&w, g); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeGenerator(snapshot.NewReader(w.Bytes()), cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decoded a node without a key frame: err = %v", tc.name, err)
		}
	}
}

func unmarked(live []frameEntry, _ vr.FrameID) []frameEntry {
	out := slices.Clone(live)
	for i := range out {
		out[i] = newFrameEntry(out[i].fid(), false)
	}
	return out
}

// TestSSGDecodeDropsExpiredNode: a node whose key frames have all left
// the window is not malformed, only expired; an encoder that did not
// expire nodes first may have written one. Decode removes it, as the
// ring would have, and the restored generator encodes and goes on.
func TestSSGDecodeDropsExpiredNode(t *testing.T) {
	cfg := Config{Window: 6, Duration: 1}
	var w snapshot.Writer
	w.String(genKindSSG)
	w.Varint(30) // next frame
	encodeMetrics(&w, Metrics{})
	w.Uvarint(0) // window frames
	w.Uvarint(1) // nodes
	s := &State{Objects: objset.New(1, 2)}
	s.frames.entries = []frameEntry{newFrameEntry(10, true), newFrameEntry(11, false)}
	encodeState(&w, s, 0)
	w.Varint(11) // visited
	w.Varint(10) // createdAt
	w.Uvarint(0) // principal frames
	w.Uvarint(0) // children
	w.Uvarint(0) // parents
	w.Uvarint(1) // root order
	w.Uvarint(0) //   node 0
	w.Uvarint(0) // principal states
	w.Uvarint(1) // results
	w.Uvarint(0) //   node 0
	g, err := DecodeGenerator(snapshot.NewReader(w.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.StateCount(); n != 0 {
		t.Fatalf("decode kept %d states, want 0", n)
	}
	var again snapshot.Writer
	if err := EncodeGenerator(&again, g); err != nil {
		t.Fatal(err)
	}
	if got := g.Process(vr.Frame{FID: 30, Objects: objset.New(1)}); len(got) != 1 || !got[0].Objects.Equal(objset.New(1)) {
		t.Errorf("first frame after decode emitted %s, want {1}", statesString(got))
	}
}

// TestSSGResumesOlderSnapshot decodes SSG snapshots written by older
// encoders, whose nodes carried principal frames, and checks that each
// continues exactly like an uninterrupted run. The same layout is written
// today, with the principal fields empty. Commit 1adda11 swept expired
// nodes before encoding; commit 52d8c55, before ΔST, did not, and its
// snapshot holds node {4}, whose key frames had all left the window.
func TestSSGResumesOlderSnapshot(t *testing.T) {
	for _, c := range []struct {
		file string
		cfg  Config
		feed []vr.Frame
		cut  int
	}{
		{"ssg-w20-d5-flicker41-cut100.snap", Config{Window: 20, Duration: 5}, flickerFeed(rand.New(rand.NewSource(41)), 160, 9), 100},
		{"ssg-w12-d4-random53-cut70.snap", Config{Window: 12, Duration: 4}, randomCoreFrames(rand.New(rand.NewSource(53)), 140, 10), 70},
	} {
		data, err := os.ReadFile("testdata/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		full := NewSSG(c.cfg)
		for _, f := range c.feed[:c.cut] {
			full.Process(f)
		}
		resumeFrom(t, c.cfg, c.feed, c.cut, full, data)
	}
}

// TestEncodeGeneratorDeterministic verifies the encoding is stable: two
// snapshots of the same state are byte-identical (internal maps must be
// serialized in canonical order), and so is the snapshot of the decoded
// state, which goes on like the original.
func TestEncodeGeneratorDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := Config{Window: 6, Duration: 3}
	frames := randomCoreFrames(rng, 40+cfg.Window, 7)
	for _, g := range []Generator{NewNaive(cfg), NewMFS(cfg), NewSSG(cfg)} {
		for _, f := range frames[:40] {
			g.Process(f)
		}
		var a, b snapshot.Writer
		if err := EncodeGenerator(&a, g); err != nil {
			t.Fatal(err)
		}
		if err := EncodeGenerator(&b, g); err != nil {
			t.Fatal(err)
		}
		if string(a.Bytes()) != string(b.Bytes()) {
			t.Errorf("%s: two encodings of the same state differ", g.Name())
		}
		restored := roundTrip(t, a.Bytes(), cfg)
		for _, f := range frames[40:] {
			if got, want := statesString(restored.Process(f)), statesString(g.Process(f)); got != want {
				t.Fatalf("%s: frame %d diverged after restore:\n got  %s\n want %s", g.Name(), f.FID, got, want)
			}
		}
	}
}

// TestDecodeGeneratorRejectsGarbage feeds malformed payloads to the
// decoder and requires errors, never panics.
func TestDecodeGeneratorRejectsGarbage(t *testing.T) {
	cfg := Config{Window: 5, Duration: 2}

	g := NewSSG(cfg)
	rng := rand.New(rand.NewSource(3))
	for _, f := range randomCoreFrames(rng, 25, 6) {
		g.Process(f)
	}
	var w snapshot.Writer
	if err := EncodeGenerator(&w, g); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()

	// Every truncation of a valid payload must error cleanly.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := DecodeGenerator(snapshot.NewReader(valid[:cut]), cfg); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	// Unknown kind tag.
	var bad snapshot.Writer
	bad.String("zipper")
	if _, err := DecodeGenerator(snapshot.NewReader(bad.Bytes()), cfg); err == nil || !strings.Contains(err.Error(), "unknown generator kind") {
		t.Errorf("unknown kind: err = %v", err)
	}

	// A negative frame cursor, which no frame id can follow.
	var neg snapshot.Writer
	neg.String(genKindMFS)
	neg.Varint(-3)
	encodeMetrics(&neg, Metrics{})
	neg.Uvarint(0) // window frames
	neg.Uvarint(0) // states
	if _, err := DecodeGenerator(snapshot.NewReader(neg.Bytes()), cfg); err == nil || !strings.Contains(err.Error(), "negative frame cursor") {
		t.Errorf("negative cursor: err = %v", err)
	}

	// A frame cursor or a state's frame id outside the range a packed
	// frame entry holds.
	for _, c := range unpackablePayloads() {
		if _, err := DecodeGenerator(snapshot.NewReader(c.payload), cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	// A state count beyond the bytes left is refused by the count check,
	// before the struct slabs and the tables are sized from it.
	for _, kind := range []string{genKindNaive, genKindMFS, genKindSSG} {
		var huge snapshot.Writer
		huge.String(kind)
		huge.Varint(10)
		encodeMetrics(&huge, Metrics{})
		huge.Uvarint(0)       // window frames
		huge.Uvarint(1 << 40) // states
		if _, err := DecodeGenerator(snapshot.NewReader(huge.Bytes()), cfg); err == nil || !strings.Contains(err.Error(), "exceeds remaining payload") {
			t.Errorf("%s: a state count over the bytes left: err = %v", kind, err)
		}
	}

	// Oracle cannot be snapshotted.
	var ow snapshot.Writer
	if err := EncodeGenerator(&ow, NewOracle(cfg)); err == nil {
		t.Error("EncodeGenerator accepted the Oracle")
	}
}

// unpackablePayloads are generator payloads that carry a frame id outside
// [minPackedFID, maxPackedFID]: a frame cursor past it, for each kind,
// and a state frame past either end, for a table and for an SSG.
func unpackablePayloads() []struct {
	name, want string
	payload    []byte
} {
	type payload = struct {
		name, want string
		payload    []byte
	}
	var out []payload
	header := func(w *snapshot.Writer, kind string, next vr.FrameID) {
		w.String(kind)
		w.Varint(next)
		encodeMetrics(w, Metrics{})
		w.Uvarint(0) // window frames
	}
	for _, kind := range []string{genKindNaive, genKindMFS, genKindSSG} {
		var w snapshot.Writer
		header(&w, kind, maxPackedFID+1)
		w.Uvarint(0) // states
		out = append(out, payload{kind + " cursor past 2^62", "frame cursor", w.Bytes()})
	}
	for _, kind := range []string{genKindMFS, genKindSSG} {
		for _, fid := range []vr.FrameID{minPackedFID - 1, maxPackedFID + 1} {
			var w snapshot.Writer
			header(&w, kind, 10)
			w.Uvarint(1) // states
			encodeSet(&w, objset.New(1))
			w.Uvarint(1) // frame entries
			w.Varint(fid)
			w.Bool(true)
			w.Bool(false) // no blockers
			w.Bool(false) // no termination flag
			out = append(out, payload{fmt.Sprintf("%s state frame %d", kind, fid), "outside", w.Bytes()})
		}
	}
	return out
}

// A refused generator payload may allocate decodeAllocPerByte bytes per
// payload byte beyond decodeAllocBase. Every allocation decode makes is
// backed by payload bytes (each count is checked against what is left
// by snapshot.Reader.Count) except the window-sized rings, which the
// fuzzer's windows of at most 64 frames keep inside the base.
const (
	decodeAllocPerByte = 512
	decodeAllocBase    = 64 << 10
)

// FuzzDecodeGenerator decodes generator payloads past the container.
// The first four bytes choose the window (1 to 64 frames), the duration,
// the termination predicate and the seed of the fresh frames; the rest
// is the payload. A payload must be refused, within the allocation
// bound above, or decode to a generator that encodes to bytes a second
// decode reproduces and that, fed w fresh frames, agrees with the oracle
// on the same frames for w more.
func FuzzDecodeGenerator(f *testing.F) {
	for _, c := range []struct {
		file   string
		config []byte
	}{
		{"ssg-w20-d5-flicker41-cut100.snap", []byte{19, 5, 0, 1}},
		{"ssg-w12-d4-random53-cut70.snap", []byte{11, 4, 0, 2}},
	} {
		data, err := os.ReadFile("testdata/" + c.file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(c.config, data...))
	}
	for _, c := range unpackablePayloads() {
		f.Add(append([]byte{9, 3, 0, 1}, c.payload...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{Window: 1 + int(data[0])%64, Terminate: terminateVariant(int(data[2]))}
		cfg.Duration = int(data[1]) % (cfg.Window + 1)
		payload := data[4:]

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := DecodeGenerator(snapshot.NewReader(payload), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			if n := after.TotalAlloc - before.TotalAlloc; n > decodeAllocBase+decodeAllocPerByte*uint64(len(payload)) {
				t.Fatalf("refusing a %d-byte payload allocated %d bytes: %v", len(payload), n, err)
			}
			return
		}

		var once, twice snapshot.Writer
		if err := EncodeGenerator(&once, g); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeGenerator(snapshot.NewReader(once.Bytes()), cfg)
		if err != nil {
			t.Fatalf("%s: decoding a re-encoded snapshot: %v", g.Name(), err)
		}
		if err := EncodeGenerator(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("%s: a second decode re-encodes differently", g.Name())
		}

		next := g.Next()
		if next > math.MaxInt64-vr.FrameID(2*cfg.Window) {
			return // no frame ids are left to number the fresh frames
		}
		oracle := NewOracle(cfg)
		oracle.next = next
		for i, fr := range flickerFeed(rand.New(rand.NewSource(int64(data[3]))), 2*cfg.Window, 8) {
			fr.FID = next + vr.FrameID(i)
			want, got := resultMap(oracle.Process(fr)), resultMap(g.Process(fr))
			if i >= cfg.Window && !maps.Equal(got, want) {
				t.Fatalf("%s: frame %d, %d after decode, disagrees with the oracle:%s", g.Name(), fr.FID, i, resultDiff(got, want))
			}
		}
	})
}

// resultDiff lists the states on which two result maps disagree.
func resultDiff(got, want map[string]string) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if want[k] != got[k] {
			fmt.Fprintf(&b, "\n  %s: got %s, want %q", k, got[k], want[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[k]; !ok {
			fmt.Fprintf(&b, "\n  %s: missing, want %s", k, want[k])
		}
	}
	return b.String()
}
