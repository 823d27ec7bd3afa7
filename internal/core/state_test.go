package core

import (
	"maps"
	"math/rand"
	"slices"
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
	wantLive := []frameEntry{newFrameEntry(5, false), newFrameEntry(7, true), newFrameEntry(9, true)}
	if !slices.Equal(fl.live(), wantLive) {
		t.Errorf("live = %v, want %v", fl.live(), wantLive)
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

// sumHash is the frame-set hash computed from scratch over the live
// entries, which frameList.hash must equal whatever led to them.
func sumHash(fl *frameList) uint32 {
	var h uint32
	for _, e := range fl.live() {
		h += mixFID(e.fid())
	}
	return h
}

// TestFrameListHashIncremental drives one pooled state's frame list
// through random in-order and out-of-order inserts (duplicates among
// them), window expiry, the push slides both force, recycling through a
// statePool, and encode → decode round trips, against a map of frame id
// to mark. After every step each packed entry must unpack to a frame id
// and mark the map holds, live() must ascend by frame id, marks must
// count the marked entries, and the kept hash must equal the sum
// recomputed from scratch over live() — and ignore the marks, as
// grouping must. It runs from frame 0, from below it, and at both ends
// of the range a packed entry holds.
func TestFrameListHashIncremental(t *testing.T) {
	for _, fid := range []vr.FrameID{minPackedFID, minPackedFID + 1, -1, 0, 1, maxPackedFID - 1, maxPackedFID} {
		for _, marked := range []bool{false, true} {
			if e := newFrameEntry(fid, marked); e.fid() != fid || e.marked() != marked {
				t.Fatalf("newFrameEntry(%d, %v) unpacks to %d, %v", fid, marked, e.fid(), e.marked())
			}
		}
	}
	const steps, window = 4000, 24
	for _, base := range []vr.FrameID{0, -700, minPackedFID, maxPackedFID - steps} {
		r := rand.New(rand.NewSource(44 + base))
		var pool statePool
		s := pool.get()
		model := map[vr.FrameID]bool{}
		check := func(step string, fl *frameList) {
			t.Helper()
			live := fl.live()
			marks := 0
			for i, e := range live {
				fid, marked := e.fid(), e.marked()
				if newFrameEntry(fid, marked) != e {
					t.Fatalf("base %d, %s: entry %#x does not repack from %d, %v", base, step, int64(e), fid, marked)
				}
				if i > 0 && live[i-1].fid() >= fid {
					t.Fatalf("base %d, %s: live() not ascending: %s", base, step, fl)
				}
				if m, ok := model[fid]; !ok || m != marked {
					t.Fatalf("base %d, %s: holds frame %d marked %v; model has %v, %v", base, step, fid, marked, ok, m)
				}
				if marked {
					marks++
				}
			}
			if len(live) != len(model) {
				t.Fatalf("base %d, %s: %d live entries, model %d", base, step, len(live), len(model))
			}
			if int(fl.marks) != marks {
				t.Fatalf("base %d, %s: marks %d, %d marked entries", base, step, fl.marks, marks)
			}
			if got, want := fl.hash(), sumHash(fl); got != want {
				t.Fatalf("base %d, %s: hash %#x, from scratch %#x over %s", base, step, got, want, fl)
			}
			unmarked := frameList{}
			for _, e := range live {
				unmarked.insert(e.fid(), !e.marked())
			}
			if unmarked.hash() != fl.hash() {
				t.Fatalf("base %d, %s: marks changed the hash of %s", base, step, fl)
			}
		}
		insert := func(fid vr.FrameID) {
			marked := r.Intn(2) == 0
			_, present := model[fid]
			if s.frames.insert(fid, marked) == present {
				t.Fatalf("base %d: insert(%d) reports new = %v with the frame present = %v", base, fid, !present, present)
			}
			if !present {
				model[fid] = marked
			}
		}
		next := base
		for step := 0; step < steps; step++ {
			switch op := r.Intn(20); {
			case op < 10: // the feed advances: append the next frame
				insert(next)
				next++
			case op < 14: // a merge: a frame inside the window, maybe present
				if next > base {
					insert(max(next-1-vr.FrameID(r.Intn(window)), base))
				}
			case op < 18:
				cut := max(next-window+vr.FrameID(r.Intn(4)), base)
				s.frames.expireBefore(cut)
				maps.DeleteFunc(model, func(fid vr.FrameID, _ bool) bool { return fid < cut })
			case op < 19: // the state dies and its storage comes back
				pool.put(s)
				clear(model)
				check("put", &s.frames)
				if s = pool.get(); s.frames.hash() != 0 {
					t.Fatalf("base %d: pooled state keeps hash %#x", base, s.frames.hash())
				}
			default:
				var w snapshot.Writer
				s.Objects = objset.New(1)
				encodeState(&w, s, base)
				sl := slabs{states: make([]State, 1)}
				rd := snapshot.NewReader(w.Bytes())
				got := sl.state(rd, next)
				if rd.Err() != nil {
					t.Fatalf("base %d: decode: %v", base, rd.Err())
				}
				check("decode", &got.frames)
			}
			check("step", &s.frames)
		}
	}
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
