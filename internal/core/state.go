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
	"math"
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
	if c.Window > math.MaxInt32 { // frame counts are 32-bit (frameList)
		return fmt.Errorf("core: window %d longer than %d frames", c.Window, math.MaxInt32)
	}
	if c.Duration < 0 || c.Duration > c.Window {
		return fmt.Errorf("core: duration %d out of range [0, %d]", c.Duration, c.Window)
	}
	return nil
}

// The range of frame ids a frame list holds, which snapshot decode
// enforces. The names date from lists of packed fid<<1 | mark words;
// the range stays so that decode refuses exactly what it refused then,
// and inside it a run's end, first + n, cannot overflow. Frames are
// numbered from 0, and a feed at a million frames a second would take
// 146 000 years to pass maxPackedFID.
const (
	minPackedFID vr.FrameID = -1 << 62
	maxPackedFID vr.FrameID = 1<<62 - 1
)

// frameRun is a run of consecutive frame ids that share a key-frame mark
// (§4.2.3): frames first … first+n−1, every one marked or none.
type frameRun struct {
	first  vr.FrameID
	n      int32 // ≥ 1; a frame list holds at most a window of frames
	marked bool
}

// end returns the id after the run's last frame.
func (r frameRun) end() vr.FrameID { return r.first + vr.FrameID(r.n) }

// frameList is a state's frame set: strictly increasing frame ids, each
// optionally marked as a key frame, stored as maximal runs of consecutive
// ids with the same mark. A state's frames come in a few long stretches
// (the frames an object set co-occurs in), so a list holds a few runs
// where it would hold tens of ids: about 5 runs against 18 ids on the D2
// trace at w=300. Frames are appended at the tail as the feed advances,
// which extends the last run; a merge inserts out of order, which
// extends a run, joins two or adds one between them; expiry trims the
// head run and drops the runs the window has passed, sliding the rest
// to the front of the array, so the array never grows while it holds
// expired runs.
//
// Two lists with the same frames may split them into different runs, as
// their marks differ, so comparisons read the ids, not the runs.
//
// The list also keeps the hash of its frame set, Σ mixFID(fid) over the
// live frames, updated by the frame an insert adds and by each frame an
// expiry drops, so hashing a frame set at emission costs nothing however
// long it is. Snapshots do not carry it; decode rebuilds it.
type frameList struct {
	runs  []frameRun
	n     int32  // frames; 32 bits each: a wider field moves State up a size class
	marks int32  // marked frames
	sum   uint32 // Σ mixFID over the frames, mod 2^32; see hash
	// hasExtra is the owning State's flag (see State.extra), kept here in
	// the padding after sum: as a State field it would move State from the
	// 128-byte size class to the 144-byte one.
	hasExtra bool
}

func (fl *frameList) len() int       { return int(fl.n) }
func (fl *frameList) hasMarks() bool { return fl.marks > 0 }

// reserve makes room for the n runs a newly created state is about to
// absorb from its parents, in one allocation: growing to them one append
// at a time allocates the list twice over. It leaves room to grow by
// half as much again, for the runs the state's own marks split off, but
// no more than a frame set can hold, which is the window.
func (fl *frameList) reserve(n, window int) {
	if n > cap(fl.runs) {
		fl.runs = make([]frameRun, 0, max(n, min(n+n/2, window)))
	}
}

// insert adds fid with the given mark, keeping the runs sorted and
// maximal; it reports whether the frame was newly inserted (false when
// already present, in which case the existing mark is kept).
func (fl *frameList) insert(fid vr.FrameID, marked bool) bool {
	runs := fl.runs
	k := len(runs)
	switch {
	case k > 0 && fid == runs[k-1].end() && runs[k-1].marked == marked:
		runs[k-1].n++ // the next frame, the overwhelmingly common case
	case k == 0 || fid >= runs[k-1].end():
		fl.runs = append(runs, frameRun{first: fid, n: 1, marked: marked})
	default:
		// i is the first run that ends after fid.
		i := sort.Search(k, func(i int) bool { return runs[i].end() > fid })
		if runs[i].first <= fid {
			return false
		}
		fl.insertBefore(i, fid, marked)
	}
	fl.n++
	fl.sum += mixFID(fid)
	if marked {
		fl.marks++
	}
	return true
}

// insertBefore adds fid, which lies in the gap before run i, joining it
// to the run on either side that it touches and shares a mark with.
func (fl *frameList) insertBefore(i int, fid vr.FrameID, marked bool) {
	runs := fl.runs
	next := &runs[i]
	joinNext := fid+1 == next.first && next.marked == marked
	if i > 0 && runs[i-1].end() == fid && runs[i-1].marked == marked {
		if joinNext {
			runs[i-1].n += 1 + next.n
			fl.runs = slices.Delete(runs, i, i+1)
		} else {
			runs[i-1].n++
		}
		return
	}
	if joinNext {
		next.first--
		next.n++
		return
	}
	fl.runs = slices.Insert(runs, i, frameRun{first: fid, n: 1, marked: marked})
}

// expireBefore removes all frames with fid < from.
func (fl *frameList) expireBefore(from vr.FrameID) {
	runs := fl.runs
	gone := 0 // runs wholly before from
	for ; gone < len(runs) && runs[gone].first < from; gone++ {
		r := &runs[gone]
		cut := min(r.end(), from)
		for fid := r.first; fid < cut; fid++ {
			fl.sum -= mixFID(fid)
		}
		k := int32(cut - r.first)
		fl.n -= k
		if r.marked {
			fl.marks -= k
		}
		if cut < r.end() {
			r.first, r.n = cut, r.n-k
			break
		}
	}
	if gone > 0 {
		fl.runs = runs[:copy(runs, runs[gone:])]
	}
}

// countFrom returns the number of frames with fid ≥ lo.
func (fl *frameList) countFrom(lo vr.FrameID) int {
	n := fl.len()
	for _, r := range fl.runs {
		if r.first >= lo {
			break
		}
		n -= int(min(r.end(), lo) - r.first)
	}
	return n
}

// last returns the newest frame id and, among the marked ones, the
// newest key frame, −1 when the list has none; ok is false when the list
// is empty.
func (fl *frameList) last() (fid, mark vr.FrameID, ok bool) {
	k := len(fl.runs)
	if k == 0 {
		return 0, -1, false
	}
	mark = -1
	for i := k - 1; i >= 0; i-- {
		if fl.runs[i].marked {
			mark = fl.runs[i].end() - 1
			break
		}
	}
	return fl.runs[k-1].end() - 1, mark, true
}

// fids returns the frame ids as a fresh slice.
func (fl *frameList) fids() []vr.FrameID {
	out := make([]vr.FrameID, fl.len())
	fl.fill(out, 0)
	return out
}

// fill writes the frame ids, each shifted by offset, into dst, which
// must be exactly len() long.
func (fl *frameList) fill(dst []vr.FrameID, offset vr.FrameID) {
	_ = dst[:fl.n]
	i := 0
	for _, r := range fl.runs {
		for fid := r.first; fid < r.end(); fid++ {
			dst[i] = fid + offset
			i++
		}
	}
}

// hash returns the hash of the exact frame set, used by the emission-time
// maximality filter to group states with identical frame sets without
// building key strings. Marks are excluded: grouping is by frame set
// alone. The hash is a sum, so insert and expireBefore keep it for the
// cost of the frames they add and drop (see frameList); the filter
// compares frame lists exactly on every hash hit, so a collision costs a
// comparison, never a wrong group.
func (fl *frameList) hash() uint32 { return fl.sum }

// mixFID is the term frame fid adds to a frame-set hash: the high half of
// splitmix64's finalizer, so that sets of nearby frame ids, which is all a
// window holds, spread over the whole range.
func mixFID(fid vr.FrameID) uint32 {
	z := uint64(fid) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return uint32((z ^ z>>31) >> 32)
}

// sameFrames reports whether two frame lists hold identical frame ids
// (the hash fallback of the emission filter's grouping map). Marks may
// split the same ids into different runs, so it compares spans: maximal
// stretches of consecutive ids, whatever their marks.
func (fl *frameList) sameFrames(other *frameList) bool {
	if fl.n != other.n {
		return false
	}
	// With equal counts and equal spans so far, b has frames left while a does.
	a, b := fl.runs, other.runs
	for len(a) > 0 {
		var af, ae, bf, be vr.FrameID
		af, ae, a = nextSpan(a)
		bf, be, b = nextSpan(b)
		if af != bf || ae != be {
			return false
		}
	}
	return true
}

// nextSpan returns the first span of runs, the ids first … end−1 of its
// leading runs that follow one another without a gap, and the runs after
// it. runs must not be empty.
func nextSpan(runs []frameRun) (first, end vr.FrameID, rest []frameRun) {
	first, end = runs[0].first, runs[0].end()
	i := 1
	for ; i < len(runs) && runs[i].first == end; i++ {
		end = runs[i].end()
	}
	return first, end, runs[i:]
}

func (fl *frameList) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for _, r := range fl.runs {
		for fid := r.first; fid < r.end(); fid++ {
			if b.Len() > 1 {
				b.WriteByte(' ')
			}
			if r.marked {
				b.WriteByte('*')
			}
			fmt.Fprintf(&b, "%d", fid)
		}
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
	// frames.hasExtra false means no unmarked frame has been folded yet
	// (the rest-closure is the universe); extra then holds no blockers,
	// only storage a dead state left behind (statePool.put) for the
	// first unmarked frame to build them in.
	extra objset.Set

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
	if !s.frames.hasExtra {
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
	if !s.frames.hasExtra {
		// extra's storage is this state's alone (see statePool.put), so
		// the difference may be built in it.
		s.extra = of.MinusInto(s.Objects, s.extra)
		s.frames.hasExtra = true
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
func (s *State) FillFrames(dst []vr.FrameID, offset vr.FrameID) { s.frames.fill(dst, offset) }

// MarkedFrames returns the marked (key) frames, oldest first.
func (s *State) MarkedFrames() []vr.FrameID {
	out := make([]vr.FrameID, 0, s.frames.marks)
	for _, r := range s.frames.runs {
		for fid := r.first; r.marked && fid < r.end(); fid++ {
			out = append(out, fid)
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
// grouping keys on the 32-bit frame-set hash each frame list keeps up to
// date (frameList.hash; with an exact frame-list comparison on hash hits,
// chained through next on the rare collisions), so the steady-state
// filter performs no allocations and reads no frame list it does not
// have to compare — the seed implementation built a byte-string key per
// state per frame and a fresh map and result slice per call.
type emitter struct {
	byHash map[uint32]int32
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
func (e *emitter) emit(states []*State, duration int, checkMarks bool) []*State {
	if e.byHash == nil {
		e.byHash = make(map[uint32]int32)
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
	// extra's storage stays for the next blockers; hasExtra false says it
	// holds none.
	s.frames = frameList{runs: s.frames.runs[:0]}
	s.agg = nil
	p.free = append(p.free, s)
}
