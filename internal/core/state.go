// Package core implements the paper's primary contribution: the MCOS
// Generation layer that incrementally maintains, for a sliding window over
// the object stream, every maximum co-occurrence object set (MCOS)
// together with the frames in which it appears.
//
// Three generators are provided, matching the paper's experimental
// subjects:
//
//   - Naive:  the baseline of §6.2 — per-object-set frame sets with a
//     group-by-frame-set maximality check at emission time.
//   - MFS:    the Marked Frame Set approach of §4.2 — states carry key
//     frames ("marks"); a state whose marked frames have all expired is
//     invalid and is pruned immediately.
//   - SSG:    the Strict State Graph of §4.3 — states are organized in a
//     graph whose edges follow set containment (Property 1) without
//     redundancy (Property 2); the State Traversal (ST) algorithm skips
//     entire subtrees that none of the frame's arriving objects touches.
//
// All three generators emit identical results (this is enforced by
// differential and oracle tests): the set of valid, satisfied states —
// MCOSs appearing in at least d frames of the current w-frame window.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// Config carries the window parameters shared by all generators.
type Config struct {
	// Window is the sliding-window size w in frames. Queries are
	// evaluated over the most recent w frames.
	Window int
	// Duration is the duration threshold d in frames: an MCOS must
	// appear in at least d frames of the window to be reported
	// (0 ≤ d ≤ w).
	Duration int
	// Terminate, if non-nil, implements the §5.3 pruning strategy: it is
	// consulted once when a state is created, and if it returns true the
	// state is dropped immediately and never maintained. It must only
	// return true when no query can ever be satisfied by the object set
	// or any of its subsets (sound for ≥-only query sets).
	Terminate func(objects objset.Set) bool
}

func (c Config) validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("core: window must be positive, got %d", c.Window)
	}
	if c.Duration < 0 || c.Duration > c.Window {
		return fmt.Errorf("core: duration %d out of range [0, %d]", c.Duration, c.Window)
	}
	return nil
}

// frameEntry records one frame id in a state's frame set together with its
// key-frame mark (§4.2.3).
type frameEntry struct {
	fid    vr.FrameID
	marked bool
}

// frameList is a state's frame set: strictly increasing frame ids, each
// optionally marked as a key frame. Frames are appended at the tail as the
// feed advances and expired from the head as the window slides.
//
// The live entries are entries[head:]. Expiry only advances head, so a
// window slide costs the frames it expires and nothing else; the dead
// prefix is reclaimed by push, which slides the live entries back to the
// front of the backing array instead of growing it. The array therefore
// never grows while it holds expired entries — re-slicing the head away
// instead would leak capacity one window slide at a time and force a
// steady trickle of reallocations on append.
type frameList struct {
	entries []frameEntry
	head    int32 // 32 bits each: a wider pair moves State up a size class
	marks   int32 // number of marked live entries
}

// live returns the unexpired entries, oldest first. The slice aliases the
// list's storage and is valid until the next insert or expireBefore.
func (fl *frameList) live() []frameEntry { return fl.entries[fl.head:] }

func (fl *frameList) len() int       { return len(fl.entries) - int(fl.head) }
func (fl *frameList) hasMarks() bool { return fl.marks > 0 }

// push appends e, reusing the room of the expired prefix before growing.
// A slide copies the live entries once per cap−len(live) appends, so
// appending is O(1) amortised unless the live entries fill the array to
// within a few slots, where it degrades to a copy of the list per append
// rather than to a larger array.
func (fl *frameList) push(e frameEntry) {
	if fl.head > 0 && len(fl.entries) == cap(fl.entries) {
		fl.entries = fl.entries[:copy(fl.entries, fl.entries[fl.head:])]
		fl.head = 0
	}
	fl.entries = append(fl.entries, e)
}

// reserve makes room for the n entries a newly created state is about to
// absorb from its parents, in one allocation: growing to them one append
// at a time allocates the list twice over. It leaves room to grow as
// much again, but no more than a frame set can hold, which is the window.
func (fl *frameList) reserve(n, window int) {
	if n > cap(fl.entries) {
		fl.entries = make([]frameEntry, 0, max(n, min(2*n, window)))
	}
}

// insert adds fid with the given mark, keeping entries sorted; it reports
// whether the frame was newly inserted (false when already present, in
// which case the existing mark is kept).
func (fl *frameList) insert(fid vr.FrameID, marked bool) bool {
	live := fl.live()
	n := len(live)
	i := n // appending past the tail, the overwhelmingly common case
	if n > 0 && live[n-1].fid >= fid {
		i = sort.Search(n, func(i int) bool { return live[i].fid >= fid })
		if live[i].fid == fid {
			return false
		}
	}
	fl.push(frameEntry{fid: fid, marked: marked})
	if i < n {
		live = fl.live()
		copy(live[i+1:], live[i:])
		live[i] = frameEntry{fid: fid, marked: marked}
	}
	if marked {
		fl.marks++
	}
	return true
}

// expireBefore removes all entries with fid < min.
func (fl *frameList) expireBefore(min vr.FrameID) {
	for int(fl.head) < len(fl.entries) && fl.entries[fl.head].fid < min {
		if fl.entries[fl.head].marked {
			fl.marks--
		}
		fl.head++
	}
	if int(fl.head) == len(fl.entries) {
		fl.entries, fl.head = fl.entries[:0], 0
	}
}

// fids returns the frame ids as a fresh slice.
func (fl *frameList) fids() []vr.FrameID {
	out := make([]vr.FrameID, fl.len())
	fl.fill(out, 0)
	return out
}

// fill writes the frame ids, each shifted by offset, into dst, which
// must be exactly len() long.
//
//tvq:noalloc
func (fl *frameList) fill(dst []vr.FrameID, offset vr.FrameID) {
	live := fl.live()
	_ = dst[:len(live)]
	for i, e := range live {
		dst[i] = e.fid + offset
	}
}

// hash returns a 64-bit FNV-1a hash of the exact frame set, used by the
// emission-time maximality filter to group states with identical frame
// sets without building key strings. Marks are excluded: grouping is by
// frame set alone.
func (fl *frameList) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, e := range fl.live() {
		f := e.fid
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ uint64(byte(f>>shift))) * prime64
		}
	}
	return h
}

// sameFrames reports whether two frame lists hold identical frame ids
// (the hash fallback of the emission filter's grouping map).
func (fl *frameList) sameFrames(other *frameList) bool {
	a, b := fl.live(), other.live()
	if len(a) != len(b) {
		return false
	}
	for i, e := range a {
		if b[i].fid != e.fid {
			return false
		}
	}
	return true
}

func (fl *frameList) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range fl.live() {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.marked {
			b.WriteByte('*')
		}
		fmt.Fprintf(&b, "%d", e.fid)
	}
	b.WriteByte('}')
	return b.String()
}

// State is the basic unit of the MCOS Generation layer (Definition 3): an
// object set together with the window frames in which all of its objects
// co-occur. A state is valid when its object set is an MCOS of its frame
// set; the marked frames track validity incrementally.
type State struct {
	// Objects is the co-occurrence object set. Immutable.
	Objects objset.Set

	frames frameList

	// extra maintains the rest-closure blockers of the state: the
	// intersection of the object sets of every frame folded in unmarked,
	// minus Objects. A frame is a key frame (marked) exactly when its
	// object set contains none of these blockers — removing all marked
	// frames then leaves a frame set whose closure still contains every
	// blocker, so Objects is not maximal on it (Definition 4 holds).
	// hasExtra false means no unmarked frame has been folded yet (the
	// rest-closure is the universe); extra then holds no blockers, only
	// storage a dead state left behind (statePool.put) for the first
	// unmarked frame to build them in.
	extra    objset.Set
	hasExtra bool

	// agg caches per-class object counts; it is computed lazily by the
	// query-evaluation layer (see Aggregate).
	agg []int
}

// fold records that the state's objects co-occur in frame fid, whose full
// object set is of (so Objects ⊆ of). The key-frame mark is decided by
// the rest-closure rule: fid is marked iff of kills every current
// blocker; otherwise the blocker set shrinks to its intersection with of
// and fid stays unmarked. Frames may arrive out of order during merges;
// folding an already-present frame is a no-op. fold reports whether fid
// became a key frame.
//
// Marks produced this way always form a key frame set (Definition 4,
// Theorem 1): the blocker set is, by construction, a subset of the
// intersection of all unmarked frames' object sets (expiry only shrinks
// the unmarked set, so staleness errs toward extra marks, never missing
// ones). Consequently a state that loses all marked frames to expiry has
// a surviving blocker in every remaining frame and is invalid, which
// makes pruning on mark-exhaustion safe (Theorem 4).
func (s *State) fold(fid vr.FrameID, of objset.Set) bool {
	var kills bool
	if !s.hasExtra {
		// Rest-closure is the universe: only a frame whose object set is
		// exactly Objects kills everything beyond it. Objects ⊆ of, so
		// comparing lengths suffices.
		kills = of.Len() == s.Objects.Len()
	} else {
		kills = !s.extra.Intersects(of)
	}
	if kills {
		return s.frames.insert(fid, true)
	}
	if !s.frames.insert(fid, false) {
		return false // already present; blockers unchanged
	}
	if !s.hasExtra {
		// extra's storage is this state's alone (see statePool.put), so
		// the difference may be built in it.
		s.extra = of.MinusInto(s.Objects, s.extra)
		s.hasExtra = true
	} else {
		// extra is uniquely owned by this state (built by MinusInto above
		// and only ever shrunk here), so the in-place, allocation-free
		// intersection is safe.
		s.extra.IntersectWith(of)
	}
	return false
}

// FrameCount returns |Fs|, the number of window frames in which the
// state's objects co-occur.
func (s *State) FrameCount() int { return s.frames.len() }

// Frames returns the frame ids of the state's frame set, oldest first.
// The slice is freshly allocated.
func (s *State) Frames() []vr.FrameID { return s.frames.fids() }

// FillFrames writes the state's frame ids, oldest first and each
// shifted by offset, into dst, which must be exactly FrameCount() long.
// It is how the evaluation layer materializes a result's frame list
// into storage it owns, in the numbering of its caller (a dynamically
// added window group numbers frames from its own start).
//
//tvq:noalloc
func (s *State) FillFrames(dst []vr.FrameID, offset vr.FrameID) { s.frames.fill(dst, offset) }

// MarkedFrames returns the marked (key) frames, oldest first.
func (s *State) MarkedFrames() []vr.FrameID {
	out := make([]vr.FrameID, 0, s.frames.marks)
	for _, e := range s.frames.live() {
		if e.marked {
			out = append(out, e.fid)
		}
	}
	return out
}

// Valid reports whether the state still holds at least one marked frame —
// the incremental validity test of Theorem 1 / Theorem 4.
func (s *State) Valid() bool { return s.frames.hasMarks() }

// String renders the state like the paper's tables: ({1 2}, {*3 4}).
func (s *State) String() string {
	return fmt.Sprintf("(%s, %s)", s.Objects, s.frames.String())
}

// Aggregate returns the per-class object counts of the state's object set,
// computing and caching them on first use. classOf resolves an object's
// class; nclasses bounds the class domain.
func (s *State) Aggregate(nclasses int, classOf func(objset.ID) vr.Class) []int {
	if s.agg == nil {
		agg := make([]int, nclasses)
		s.Objects.Range(func(id objset.ID) bool {
			if c := int(classOf(id)); c < nclasses {
				agg[c]++
			}
			return true
		})
		s.agg = agg
	}
	return s.agg
}

// Generator is the common interface of the three MCOS generators. Process
// consumes the next frame (frames must arrive with consecutive ids
// starting at 0) and returns the window's result state set: every valid
// state whose object set is an MCOS appearing in at least d frames of the
// window ending at this frame. The returned states are owned by the
// generator and must not be mutated; both the slice and the states it
// points to are only valid until the next call to Process (generators
// reuse emission buffers and recycle dead states). The slice is sorted by
// object set (objset.Compare order) for deterministic comparison.
//
// Ownership of the input depends on f.Owned. For a borrowed frame (the
// default), Process takes its own copy of everything it retains from f
// (the window buffer clones f.Objects), so the caller may reuse the
// frame's backing storage — object-id slices, bitmap words — to build
// the next frame as soon as Process returns; a live ingest loop can
// therefore decode into one reusable buffer. When f.Owned is true the
// caller transfers the object set's storage to the generator: the
// window retains it without a clone, and the caller must not mutate or
// reuse it afterwards. Object sets are immutable once constructed, so
// an owned set may still be read concurrently (e.g. by other window
// groups fed the same frame).
type Generator interface {
	Name() string
	// Process consumes the next frame; see the interface doc for the
	// full ownership contract on both sides of the call.
	Process(f vr.Frame) []*State
	// StateCount reports the number of live states currently maintained,
	// for instrumentation and benchmarks.
	StateCount() int
	// Next returns the id of the frame Process expects next.
	Next() vr.FrameID
}

// retainObjects returns the object set a generator may keep in its
// window buffer past the Process call: the frame's own set when the
// caller transferred ownership (Compact densifies when profitable and
// otherwise returns the set unchanged, costing nothing), or a clone
// when the frame is borrowed and its storage still belongs to the
// caller.
//
//tvq:noalloc
func retainObjects(f vr.Frame) objset.Set {
	if f.Owned {
		return objset.Compact(f.Objects)
	}
	return f.Objects.Clone()
}

// frameWindow buffers the object set of each of the last w frames for the
// marking rule (State.fold), which needs a frame's full object set when a
// parent's frames merge into a new state. Frame fid lives in slot
// fid mod w, so storing the arriving frame overwrites exactly the one
// that left the window.
type frameWindow struct {
	sets []objset.Set
	next vr.FrameID // id of the next frame; [next−w, next) is buffered
}

func newFrameWindow(w int) frameWindow { return frameWindow{sets: make([]objset.Set, w)} }

// slot returns the slot of frame fid ≥ 0.
func (fw *frameWindow) slot(fid vr.FrameID) *objset.Set {
	return &fw.sets[fid%vr.FrameID(len(fw.sets))]
}

// push buffers the object set of f, which must be frame next, and
// returns the buffered set: a generator retains f.Objects past its
// Process call only through here (see retainObjects).
//
//tvq:noalloc
func (fw *frameWindow) push(f vr.Frame) objset.Set {
	s := retainObjects(f)
	*fw.slot(fw.next) = s
	fw.next++
	return s
}

// at returns the object set of frame fid; ok is false outside the window.
func (fw *frameWindow) at(fid vr.FrameID) (s objset.Set, ok bool) {
	if fid < 0 || fid >= fw.next || fid < fw.next-vr.FrameID(len(fw.sets)) {
		return objset.Set{}, false
	}
	return *fw.slot(fid), true
}

// Metrics counts the work a generator performed; used by the experiment
// harness to explain performance differences.
//
// Intersections counts the tests of a state against the arriving frame,
// once each: an intersection with the frame's object set, and for SSG
// also each test of a state against the frame's arrivals (the objects
// the previous frame lacked), which is what decides whether a subtree is
// entered. A test counts whether a set operation decided it or SSG's
// 64-bit signatures did (DESIGN.md "State Traversal on the frame's
// change"), so the count does not depend on how many set operations ran.
// StatesVisited counts the states on which
// the per-frame maintenance step ran — for Naive and MFS every live
// state, for SSG the states the previous frame folded plus the states an
// arrival test let through; a state an arrival test turned away is
// counted in Intersections only.
type Metrics struct {
	FramesProcessed  int
	StatesCreated    int
	StatesPruned     int   // removed because invalid (marks expired) or empty
	StatesTerminated int   // dropped by the §5.3 strategy
	Intersections    int64 // tests of a state against the frame or its arrivals
	StatesVisited    int64 // states maintained across all frames
}

// emitter applies the duration check and the exact maximality filter
// shared by all generators: among satisfied states, group by identical
// frame set and keep only the maximum object set of each group (per
// Definition 2 a co-occurrence object set of a fixed frame set has a
// unique maximum). Results are sorted by object set (objset.Compare) for
// determinism.
//
// Each generator owns one emitter and reuses its buffers across frames:
// grouping keys on a 64-bit frame-set hash (with an exact frame-list
// comparison on hash hits, chained through next on the vanishingly rare
// collisions), so the steady-state filter performs no allocations — the
// seed implementation built a byte-string key per state per frame and a
// fresh map and result slice per call.
type emitter struct {
	byHash map[uint64]int32
	groups []emitGroup
	out    []*State
}

// emitGroup is the current best state for one distinct frame set; next
// chains groups whose frame sets share a hash (-1 terminates).
type emitGroup struct {
	best *State
	next int32
}

// emit filters states and returns the result set. The returned slice and
// its ordering are only valid until the next emit call on this emitter.
//
//tvq:noalloc
func (e *emitter) emit(states []*State, duration int, checkMarks bool) []*State {
	if e.byHash == nil {
		e.byHash = make(map[uint64]int32)
	}
	clear(e.byHash)
	e.groups = e.groups[:0]
	for _, s := range states {
		if s.FrameCount() < duration || s.FrameCount() == 0 {
			continue
		}
		if checkMarks && !s.Valid() {
			continue
		}
		h := s.frames.hash()
		idx, ok := e.byHash[h]
		if !ok {
			e.groups = append(e.groups, emitGroup{best: s, next: -1})
			e.byHash[h] = int32(len(e.groups) - 1)
			continue
		}
		for {
			if g := &e.groups[idx]; g.best.frames.sameFrames(&s.frames) {
				if s.Objects.Len() > g.best.Objects.Len() {
					g.best = s
				}
				break
			}
			if next := e.groups[idx].next; next >= 0 {
				idx = next
				continue
			}
			// Hash collision between distinct frame sets: start a new
			// group on the chain.
			e.groups = append(e.groups, emitGroup{best: s, next: -1})
			e.groups[idx].next = int32(len(e.groups) - 1)
			break
		}
	}
	out := e.out[:0]
	for i := range e.groups {
		out = append(out, e.groups[i].best)
	}
	// slices.SortFunc rather than sort.Slice: the latter boxes its
	// arguments and costs two allocations per emission.
	slices.SortFunc(out, func(a, b *State) int {
		return objset.Compare(a.Objects, b.Objects)
	})
	e.out = out
	return out
}

// statePool recycles State storage across window slides: a state whose
// frame set expired hands its struct, its frame list's capacity and its
// blocker storage to the next state created, so steady-state churn
// stops hitting the allocator. Pooled states must already be
// unreachable from the graph/table; the Process contract (results valid
// only until the next call) makes the recycling invisible to callers.
// Blockers can be recycled because nothing outside the state ever
// holds them: results carry Objects and frames only. Object sets are
// deliberately NOT recycled — query.Match values share their backing
// storage.
type statePool struct {
	free []*State
}

func (p *statePool) get() *State {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return &State{}
}

func (p *statePool) put(s *State) {
	s.Objects = objset.Set{}
	s.frames.entries = s.frames.entries[:0]
	s.frames.head = 0
	s.frames.marks = 0
	s.hasExtra = false // extra's storage stays for the next blockers
	s.agg = nil
	p.free = append(p.free, s)
}
