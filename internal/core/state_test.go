package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

func TestFrameListInsert(t *testing.T) {
	var fl frameList
	if !fl.insert(5, false) {
		t.Fatal("first insert reported duplicate")
	}
	if !fl.insert(9, true) {
		t.Fatal("tail insert reported duplicate")
	}
	if fl.insert(5, true) {
		t.Fatal("duplicate insert reported new")
	}
	// Mid-list insert.
	if !fl.insert(7, true) {
		t.Fatal("mid insert reported duplicate")
	}
	want := []vr.FrameID{5, 7, 9}
	got := fl.fids()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fids = %v", got)
		}
	}
	if fl.marks != 2 {
		t.Errorf("marks = %d, want 2 (7 and 9)", fl.marks)
	}
	wantRuns := []frameRun{{5, 1, false}, {7, 1, true}, {9, 1, true}}
	if !slices.Equal(fl.runs, wantRuns) {
		t.Errorf("runs = %v, want %v", fl.runs, wantRuns)
	}
	// 8 joins the marked runs on either side into one.
	fl.insert(8, true)
	if wantRuns = []frameRun{{5, 1, false}, {7, 3, true}}; !slices.Equal(fl.runs, wantRuns) {
		t.Errorf("runs = %v, want %v", fl.runs, wantRuns)
	}
}

func TestFrameListExpire(t *testing.T) {
	var fl frameList
	fl.insert(1, true)
	fl.insert(2, false)
	fl.insert(3, true)
	fl.expireBefore(3)
	if fl.len() != 1 || fl.marks != 1 {
		t.Fatalf("after expire: len=%d marks=%d", fl.len(), fl.marks)
	}
	fl.expireBefore(10)
	if fl.len() != 0 || fl.marks != 0 || fl.hasMarks() {
		t.Fatalf("after full expire: len=%d marks=%d", fl.len(), fl.marks)
	}
	// Expiring an empty list is a no-op.
	fl.expireBefore(20)
}

func TestFrameListHashDistinguishesSets(t *testing.T) {
	var a, b frameList
	a.insert(1, false)
	a.insert(2, false)
	b.insert(1, false)
	if a.hash() == b.hash() {
		t.Error("different frame sets share a hash")
	}
	if a.sameFrames(&b) || b.sameFrames(&a) {
		t.Error("different frame sets compare equal")
	}
	var c frameList
	c.insert(1, true) // marks must not affect grouping
	c.insert(2, true)
	if a.hash() != c.hash() {
		t.Error("marks changed the frame-set hash")
	}
	if !a.sameFrames(&c) {
		t.Error("marks changed frame-set equality")
	}
	// {1,23} vs {12,3}-style prefix confusion must not collide.
	var d, e frameList
	d.insert(1, false)
	d.insert(23, false)
	e.insert(12, false)
	e.insert(3, false)
	if d.hash() == e.hash() {
		t.Error("hash collision between {1 23} and {3 12}")
	}
}

// sumHash is the frame-set hash computed from scratch over the frames,
// which frameList.hash must equal whatever led to them.
func sumHash(fl *frameList) uint32 {
	var h uint32
	for _, fid := range fl.fids() {
		h += mixFID(fid)
	}
	return h
}

// checkFrameList holds fl against model, the sorted reference of its
// frames with their marks, and fails t at the first disagreement:
//   - the runs ascend, are non-empty, neither overlap nor touch with the
//     same mark (so they are maximal), and expand to exactly the model;
//   - the kept count, mark count and hash equal those recomputed from
//     the model, and the hash ignores marks;
//   - fill with an offset, last and countFrom read the model's frames;
//   - sameFrames holds against the same frames split into other runs by
//     other marks, and fails against as many frames that differ in one.
func checkFrameList(t testing.TB, step string, fl *frameList, model []frameMark) {
	t.Helper()
	var got []frameMark
	for i, r := range fl.runs {
		if r.n < 1 {
			t.Fatalf("%s: run %d of %s is empty", step, i, fl)
		}
		if i > 0 {
			if p := fl.runs[i-1]; p.end() > r.first || p.end() == r.first && p.marked == r.marked {
				t.Fatalf("%s: runs %v and %v overlap or are not maximal", step, p, r)
			}
		}
		for fid := r.first; fid < r.end(); fid++ {
			got = append(got, frameMark{fid, r.marked})
		}
	}
	if !slices.Equal(got, model) {
		t.Fatalf("%s: list %s holds %v, model %v", step, fl, got, model)
	}
	marks, newestMark := 0, vr.FrameID(-1)
	var sum uint32
	for _, m := range model {
		sum += mixFID(m.fid)
		if m.marked {
			marks++
			newestMark = m.fid
		}
	}
	if fl.len() != len(model) || int(fl.marks) != marks || fl.hash() != sum {
		t.Fatalf("%s: %s counts %d frames, %d marks, hash %#x; model %d, %d, %#x",
			step, fl, fl.len(), fl.marks, fl.hash(), len(model), marks, sum)
	}
	const offset = 1000
	dst := make([]vr.FrameID, len(model))
	fl.fill(dst, offset)
	for i, m := range model {
		if dst[i] != m.fid+offset {
			t.Fatalf("%s: fill with offset %d wrote %v for %v", step, offset, dst, model)
		}
	}
	newest, mark, ok := fl.last()
	if ok != (len(model) > 0) || ok && (newest != model[len(model)-1].fid || mark != newestMark) {
		t.Fatalf("%s: last() = %d, %d, %v on %v", step, newest, mark, ok, model)
	}
	for _, m := range spread(model) {
		for _, lo := range []vr.FrameID{m.fid, m.fid + 1} {
			want := len(model) - sort.Search(len(model), func(i int) bool { return model[i].fid >= lo })
			if got := fl.countFrom(lo); got != want {
				t.Fatalf("%s: countFrom(%d) = %d, want %d on %v", step, lo, got, want, model)
			}
		}
	}
	// The same frames under every other mark, and under marks alternating
	// every frame: different runs, the same frame set.
	for _, flip := range []func(int, bool) bool{
		func(_ int, m bool) bool { return !m },
		func(i int, _ bool) bool { return i%2 == 0 },
	} {
		var other frameList
		for i, m := range model {
			other.insert(m.fid, flip(i, m.marked))
		}
		if !fl.sameFrames(&other) || !other.sameFrames(fl) || other.hash() != fl.hash() {
			t.Fatalf("%s: %s and %s hold the same frames: sameFrames %v, hashes %#x %#x",
				step, fl, &other, fl.sameFrames(&other), fl.hash(), other.hash())
		}
	}
	// As many frames, one of them moved past the newest.
	for _, moved := range spread(model) {
		var other frameList
		for _, m := range model {
			if m != moved {
				other.insert(m.fid, m.marked)
			}
		}
		other.insert(model[len(model)-1].fid+1, false)
		if fl.sameFrames(&other) || other.sameFrames(fl) {
			t.Fatalf("%s: %s and %s compare equal", step, fl, &other)
		}
	}
}

// spread returns a few frames of model, among them its first and last,
// for the checks that cost a pass over the list each.
func spread(model []frameMark) []frameMark {
	if len(model) <= 3 {
		return model
	}
	return []frameMark{model[0], model[len(model)/3], model[2*len(model)/3], model[len(model)-1]}
}

// frameMark is one frame of the reference model checkFrameList reads.
type frameMark struct {
	fid    vr.FrameID
	marked bool
}

// driveFrameList runs ops against one pooled state's frame list and a
// sorted reference, from frame base, and checks the two agree after
// every op (checkFrameList). Each op byte picks, by its low bits, what
// the feed does next, and its high bits parameterize it:
//   - 0–3: the feed advances: append the next frame, marked or not;
//   - 4: skip a frame, then append: a gap starts a new run;
//   - 5–7: a merge: insert a frame of the window, maybe present, which
//     may extend, join or land between runs;
//   - 8–10: expire before a cut near the window start, which may fall on
//     a run's first frame, inside a run or past its end;
//   - 11: the state dies and its storage comes back through a statePool;
//   - 12: encode → decode round trip;
//   - else nothing.
func driveFrameList(t testing.TB, base vr.FrameID, ops []byte) {
	t.Helper()
	const window = 24
	var pool statePool
	s := pool.get()
	var model []frameMark
	next := base
	insert := func(fid vr.FrameID, marked bool) {
		i := sort.Search(len(model), func(i int) bool { return model[i].fid >= fid })
		present := i < len(model) && model[i].fid == fid
		if s.frames.insert(fid, marked) == present {
			t.Fatalf("base %d: insert(%d) reports new = %v with the frame present = %v", base, fid, !present, present)
		}
		if !present {
			model = slices.Insert(model, i, frameMark{fid, marked})
		}
	}
	for step, op := range ops {
		arg := vr.FrameID(op >> 4)
		switch op & 15 {
		case 0, 1, 2, 3:
			insert(next, op&1 != 0)
			next++
		case 4:
			next++
			insert(next, op&16 != 0)
			next++
		case 5, 6, 7:
			if next > base {
				insert(max(next-1-arg%window, base), op&1 != 0)
			}
		case 8, 9, 10:
			cut := max(next-window+arg%8, base)
			s.frames.expireBefore(cut)
			model = slices.DeleteFunc(model, func(m frameMark) bool { return m.fid < cut })
		case 11:
			pool.put(s)
			model = model[:0]
			checkFrameList(t, fmt.Sprintf("base %d step %d put", base, step), &s.frames, model)
			if s = pool.get(); s.frames.hash() != 0 || s.frames.len() != 0 {
				t.Fatalf("base %d: pooled state keeps hash %#x, %d frames", base, s.frames.hash(), s.frames.len())
			}
		case 12:
			var w snapshot.Writer
			s.Objects = objset.New(1)
			encodeState(&w, s, base)
			sl := slabs{states: make([]State, 1)}
			rd := snapshot.NewReader(w.Bytes())
			got := sl.state(rd, next)
			if rd.Err() != nil {
				t.Fatalf("base %d: decode: %v", base, rd.Err())
			}
			checkFrameList(t, fmt.Sprintf("base %d step %d decode", base, step), &got.frames, model)
		}
		checkFrameList(t, fmt.Sprintf("base %d step %d op %#x", base, step, op), &s.frames, model)
	}
}

// TestFrameListHashIncremental drives one pooled state's frame list
// through random in-order and out-of-order inserts (duplicates among
// them), window expiry, recycling through a statePool, and encode →
// decode round trips, against a sorted reference of frame id and mark
// (driveFrameList). It runs from frame 0, from below it, and at both
// ends of the range a frame list holds.
func TestFrameListHashIncremental(t *testing.T) {
	const steps = 3000
	for _, base := range []vr.FrameID{0, -700, minPackedFID, maxPackedFID - steps} {
		r := rand.New(rand.NewSource(44 + base))
		ops := make([]byte, steps)
		r.Read(ops)
		driveFrameList(t, base, ops)
	}
}

// TestFrameListRunsModel walks a frame list through the run cases one at
// a time, each checked against the sorted reference: inserts out of
// order that extend a run at either end, join two runs, or sit between
// runs of other marks; expiry exactly at a run's first frame, inside a
// run and at a run's end.
func TestFrameListRunsModel(t *testing.T) {
	var fl frameList
	var model []frameMark
	step := func(name string, do func()) {
		t.Helper()
		do()
		checkFrameList(t, name, &fl, model)
	}
	add := func(fid vr.FrameID, marked bool) func() {
		return func() {
			if !fl.insert(fid, marked) {
				t.Fatalf("insert(%d) reported present", fid)
			}
			i := sort.Search(len(model), func(i int) bool { return model[i].fid >= fid })
			model = slices.Insert(model, i, frameMark{fid, marked})
		}
	}
	expire := func(from vr.FrameID) func() {
		return func() {
			fl.expireBefore(from)
			model = slices.DeleteFunc(model, func(m frameMark) bool { return m.fid < from })
		}
	}
	for fid := vr.FrameID(10); fid < 14; fid++ {
		step("tail", add(fid, true))
	}
	step("gap", add(20, true))
	step("mark flip", add(21, false))
	step("extend a run's end out of order", add(14, true))
	step("extend a run's start out of order", add(19, true))
	step("between, other mark", add(17, false))
	step("touch the run after, other mark", add(18, false))
	step("join two runs", add(16, false))
	step("join two runs", add(15, true))
	if len(fl.runs) != 4 { // *10-*15 16-18 *19-*20 21
		t.Fatalf("runs %v, want 4", fl.runs)
	}
	step("expire at a run's first frame", expire(10))
	step("expire inside a run", expire(12))
	step("expire at a run's end", expire(16))
	step("expire across runs", expire(20))
	step("expire everything", expire(30))
	if cap(fl.runs) == 0 {
		t.Error("expiring everything dropped the list's storage")
	}
	step("start again", add(40, false))
}

// FuzzFrameList runs driveFrameList on op strings the fuzzer writes,
// from a base it picks inside the range a frame list holds, so that
// each op sequence is checked against the sorted reference after every
// step.
func FuzzFrameList(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 0x20, 4, 0x15, 0x36, 0x08, 12, 11, 3})
	f.Add(int64(-3), []byte{1, 1, 4, 4, 0x25, 0x45, 0x18, 0x29, 12, 0, 0, 0x0a})
	f.Add(int64(maxPackedFID), []byte{3, 2, 1, 0, 0x16, 0x17, 12, 0x3a, 11, 1})
	f.Fuzz(func(t *testing.T, base int64, ops []byte) {
		const room = 1 << 20 // more frames than any op string advances
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		b := vr.FrameID(base)
		b = min(max(b, minPackedFID), maxPackedFID-room)
		driveFrameList(t, b, ops)
	})
}

// TestEmitHashCollision forces every frame list onto one hash: states
// with different frame sets must stay in groups of their own (the
// collision chain compares exactly), and states with the same frame set
// but different marks must still merge to the largest object set.
func TestEmitHashCollision(t *testing.T) {
	mk := func(objects objset.Set, fids []vr.FrameID, marked func(vr.FrameID) bool) *State {
		s := &State{Objects: objects}
		for _, fid := range fids {
			s.frames.insert(fid, marked(fid))
		}
		s.frames.sum = 0x5eed // the collision
		return s
	}
	all := func(vr.FrameID) bool { return true }
	even := func(fid vr.FrameID) bool { return fid%2 == 0 }
	a := mk(objset.New(1), []vr.FrameID{1, 2, 3}, all)
	b := mk(objset.New(2), []vr.FrameID{1, 2, 4}, all)
	c := mk(objset.New(1, 3), []vr.FrameID{1, 2, 3}, even)
	d := mk(objset.New(5), []vr.FrameID{2, 3}, all)
	e := mk(objset.New(5, 6, 7), []vr.FrameID{1, 2, 4}, even)
	out := (&emitter{}).emit([]*State{a, b, c, d, e}, 1, true)
	want := []*State{c, d, e} // by object set: {1 3} < {5} < {5 6 7}
	if !slices.Equal(out, want) {
		t.Fatalf("emit = %v, want %v", out, want)
	}
}

func TestFrameListString(t *testing.T) {
	var fl frameList
	fl.insert(1, true)
	fl.insert(2, false)
	if got := fl.String(); got != "{*1 2}" {
		t.Errorf("String = %q", got)
	}
}

// TestFoldInvariant checks the documented invariant of State.fold: the
// blocker set is always a subset of the intersection of all unmarked
// frames' object sets minus the state's objects.
func TestFoldInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		objects := objset.New(1, 2)
		s := &State{Objects: objects}
		window := map[vr.FrameID]objset.Set{}
		for fid := vr.FrameID(0); fid < 15; fid++ {
			// Random superset of {1,2}.
			ids := []objset.ID{1, 2}
			for j := 0; j < r.Intn(4); j++ {
				ids = append(ids, objset.ID(3+r.Intn(5)))
			}
			of := objset.New(ids...)
			window[fid] = of
			s.fold(fid, of)
		}
		// Recompute the true rest-closure over unmarked frames.
		marks := map[vr.FrameID]bool{}
		for _, m := range s.MarkedFrames() {
			marks[m] = true
		}
		first := true
		var closure objset.Set
		for _, fid := range s.Frames() {
			if marks[fid] {
				continue
			}
			if first {
				closure = window[fid]
				first = false
			} else {
				closure = closure.Intersect(window[fid])
			}
		}
		if first {
			// No unmarked frames: hasExtra must be false.
			return !s.frames.hasExtra
		}
		trueExtra := closure.Minus(objects)
		// Invariant: extra ⊆ trueExtra, and extra nonempty (an unmarked
		// fold always leaves at least one blocker).
		return s.frames.hasExtra && s.extra.SubsetOf(trueExtra) && !s.extra.IsEmpty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFoldMarksFramesEqualToObjects: a frame whose object set equals the
// state's kills everything and must always be marked (the principal-state
// rule of §4.3.1). fold reports the marking, and a repeated fold marks
// nothing new.
func TestFoldMarksFramesEqualToObjects(t *testing.T) {
	s := &State{Objects: objset.New(1, 2)}
	if s.fold(0, objset.New(1, 2, 3)) { // superset: unmarked, blockers {3}
		t.Error("fold of a superset frame reported a key frame")
	}
	if !s.fold(1, objset.New(1, 2)) { // exact: marked
		t.Error("fold of an exact frame reported no key frame")
	}
	if s.fold(1, objset.New(1, 2)) {
		t.Error("repeated fold reported a new key frame")
	}
	marks := s.MarkedFrames()
	if len(marks) != 1 || marks[0] != 1 {
		t.Fatalf("marks = %v, want [1]", marks)
	}
}

func TestFoldDuplicateFrameIsNoop(t *testing.T) {
	s := &State{Objects: objset.New(1)}
	s.fold(0, objset.New(1, 2))
	extra := s.extra
	s.fold(0, objset.New(1, 2))
	if s.FrameCount() != 1 || !s.extra.Equal(extra) {
		t.Error("duplicate fold changed state")
	}
}

func TestEmitMaximalityFilter(t *testing.T) {
	// Two states with the same frame set: only the larger object set is
	// an MCOS.
	big := &State{Objects: objset.New(1, 2, 3)}
	small := &State{Objects: objset.New(1, 2)}
	for fid := vr.FrameID(0); fid < 3; fid++ {
		big.frames.insert(fid, true)
		small.frames.insert(fid, true)
	}
	out := (&emitter{}).emit([]*State{small, big}, 2, true)
	if len(out) != 1 || !out[0].Objects.Equal(big.Objects) {
		t.Fatalf("emit = %v", out)
	}
}

func TestEmitDurationAndValidity(t *testing.T) {
	ok := &State{Objects: objset.New(1)}
	ok.frames.insert(0, true)
	ok.frames.insert(1, false)

	short := &State{Objects: objset.New(2)}
	short.frames.insert(0, true)

	// Distinct frame set {0, 2} so the maximality filter does not group
	// it with ok's {0, 1}.
	unmarked := &State{Objects: objset.New(3)}
	unmarked.frames.insert(0, false)
	unmarked.frames.insert(2, false)

	em := &emitter{}
	out := em.emit([]*State{ok, short, unmarked}, 2, true)
	if len(out) != 1 || !out[0].Objects.Equal(objset.New(1)) {
		t.Fatalf("emit = %v", out)
	}
	// Without the marks requirement the unmarked state qualifies too.
	out = em.emit([]*State{ok, short, unmarked}, 2, false)
	if len(out) != 2 {
		t.Fatalf("emit without marks = %v", out)
	}
}

func TestEmitDeterministicOrder(t *testing.T) {
	var states []*State
	for i := 5; i > 0; i-- {
		s := &State{Objects: objset.New(objset.ID(i))}
		s.frames.insert(0, true)
		states = append(states, s)
	}
	out := (&emitter{}).emit(states, 0, true)
	for i := 1; i < len(out); i++ {
		if objset.Compare(out[i-1].Objects, out[i].Objects) >= 0 {
			t.Fatal("emit output not sorted")
		}
	}
}

func TestOracleRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewOracle(Config{Window: -1})
}

func TestOracleOutOfOrderPanics(t *testing.T) {
	o := NewOracle(Config{Window: 3, Duration: 1})
	o.Process(vr.Frame{FID: 0, Objects: objset.New(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order accepted")
		}
	}()
	o.Process(vr.Frame{FID: 2, Objects: objset.New(1)})
}

func TestGeneratorNames(t *testing.T) {
	cfg := Config{Window: 3, Duration: 1}
	names := map[string]Generator{
		"NAIVE":  NewNaive(cfg),
		"MFS":    NewMFS(cfg),
		"SSG":    NewSSG(cfg),
		"ORACLE": NewOracle(cfg),
	}
	for want, g := range names {
		if g.Name() != want {
			t.Errorf("Name = %q, want %q", g.Name(), want)
		}
	}
}
