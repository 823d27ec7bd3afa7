package core

import (
	"cmp"
	"slices"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// table is the flat state store shared by the Naive and MFS generators:
// states keyed by their interned object-set handle. Every arriving frame
// is intersected with every live state (the "first attempt" maintenance
// of §4.2.2); the two generators differ only in whether key frames are
// marked and invalid states pruned early (§4.2.3–4.2.4).
//
// The hot path is allocation-free in steady state: intersections are
// computed into a reusable Scratch, distinct intersection values are
// identified by interning (one integer handle compare instead of a key
// string per probe), per-frame grouping reuses the pend/pendIdx
// buffers, dead states return their storage to a pool, and emission
// reuses the generator's emitter.
type table struct {
	cfg      Config
	useMarks bool

	intern *objset.Interner
	states []*State // indexed by objset.Handle; nil when no such state
	live   int

	// window buffers the object set of each live frame; the marking rule
	// consults it when folding a parent's frames into a new state. It also
	// numbers the frames: window.next is the id Process expects.
	window  frameWindow
	metrics Metrics

	// Reusable per-frame scratch.
	buf     objset.Scratch
	em      emitter
	pend    []pending
	pendIdx map[objset.Handle]int32
	pool    statePool
	all     []*State
	spans   []frameRun
}

func newTable(cfg Config, useMarks bool) *table {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &table{
		cfg:      cfg,
		useMarks: useMarks,
		intern:   objset.NewInterner(),
		window:   newFrameWindow(cfg.Window),
		pendIdx:  make(map[objset.Handle]int32),
	}
}

func (t *table) StateCount() int  { return t.live }
func (t *table) Metrics() Metrics { return t.metrics }
func (t *table) Next() vr.FrameID { return t.window.next }

// state returns the live state with interned handle h, or nil.
func (t *table) state(h objset.Handle) *State {
	if int(h) < len(t.states) {
		return t.states[h]
	}
	return nil
}

// setState records s as the live state for handle h.
func (t *table) setState(h objset.Handle, s *State) {
	for int(h) >= len(t.states) {
		t.states = append(t.states, nil)
	}
	t.states[h] = s
	t.live++
}

// remove drops the state with handle h, releasing its interned set and
// recycling its storage.
func (t *table) remove(h objset.Handle) {
	s := t.states[h]
	t.states[h] = nil
	t.live--
	t.intern.Release(h)
	t.pool.put(s)
}

// pending accumulates, for one distinct intersection value produced while
// processing a frame, the parent states that generated it. The new
// state's frame set is the union of all parents' frame sets plus the
// arriving frame: a frame contains the intersection whenever it contains
// any parent (§4.2.2 step 2.a, generalized to multiple parents so frame
// sets stay exact).
type pending struct {
	h       objset.Handle
	created bool // the handle was first interned by this frame's scan
	parents []*State
}

// Process implements Generator.
func (t *table) Process(f vr.Frame) []*State {
	if f.FID != t.window.next {
		panic("core: frames must be processed in order starting at 0")
	}
	t.metrics.FramesProcessed++
	minFID := f.FID - vr.FrameID(t.cfg.Window) + 1
	// The window buffer outlives this call, so a borrowed frame must be
	// cloned: its storage belongs to the caller (a live ingest loop may
	// reuse its buffers for the next frame). Clone also picks the
	// word-parallel bitmap form when the frame's ids are dense; every
	// state this frame spawns inherits it. An Owned frame transfers its
	// storage to us, so Compact suffices — it densifies when profitable
	// and is otherwise free.
	fo := t.window.push(f)

	// Phase 1: slide the window — expire old frames, drop dead states.
	// MFS additionally drops states whose marked frames all expired
	// (invalid states, Theorem 1).
	for h, s := range t.states {
		if s == nil {
			continue
		}
		s.frames.expireBefore(minFID)
		if s.frames.len() == 0 || (t.useMarks && !s.frames.hasMarks()) {
			t.remove(objset.Handle(h))
			t.metrics.StatesPruned++
		}
	}

	if fo.IsEmpty() {
		return t.em.emit(t.collect(), t.cfg.Duration, t.useMarks)
	}

	// Phase 2: intersect the arriving object set with every live state,
	// grouping parents by interned intersection handle. New handles are
	// interned immediately (cloning the scratch-backed value into owned
	// storage); handles that do not end up with a state are released in
	// phase 3.
	t.pend = t.pend[:0]
	clear(t.pendIdx)
	scanned := len(t.states) // phase 3 appends; scan only pre-existing entries
	for h := 0; h < scanned; h++ {
		s := t.states[h]
		if s == nil {
			continue
		}
		t.metrics.StatesVisited++
		t.metrics.Intersections++
		inter := s.Objects.IntersectInto(fo, &t.buf)
		if inter.IsEmpty() {
			continue
		}
		ih, created := t.intern.Intern(inter)
		idx, ok := t.pendIdx[ih]
		if !ok {
			idx = int32(len(t.pend))
			t.pend = appendPending(t.pend, ih, created)
			t.pendIdx[ih] = idx
		}
		t.pend[idx].parents = append(t.pend[idx].parents, s)
	}

	// Phase 3: apply the intersections. An existing state absorbs the
	// arriving frame; a new intersection materializes a state whose
	// frame set is the union of its parents' frame sets plus this frame.
	// Key-frame marks are decided by the rest-closure rule in State.fold
	// (§4.2.3: the frame creating a state directly is always marked —
	// fold yields exactly that, since a frame whose object set equals the
	// state's kills every blocker).
	for i := range t.pend {
		p := &t.pend[i]
		if !p.created {
			t.fold(t.states[p.h], f.FID, fo)
			continue
		}
		if t.cfg.Terminate != nil && t.cfg.Terminate(t.intern.Of(p.h)) {
			t.intern.Release(p.h)
			t.metrics.StatesTerminated++
			continue
		}
		s := t.pool.get()
		s.Objects = t.intern.Of(p.h)
		t.setState(p.h, s)
		t.metrics.StatesCreated++
		spans := t.unionSpans(p.parents)
		s.frames.reserve(len(spans)+1, t.cfg.Window)
		for _, sp := range spans {
			for fid := sp.first; fid < sp.end(); fid++ {
				of, _ := t.window.at(fid)
				t.fold(s, fid, of)
			}
		}
		t.fold(s, f.FID, fo)
	}

	// Phase 4 (§4.2.2 step 2.b): if no state carries the frame's own
	// object set — neither pre-existing nor produced as an intersection —
	// create it with this frame as its only (marked) member.
	if _, ok := t.intern.Lookup(fo); !ok {
		if t.cfg.Terminate != nil && t.cfg.Terminate(fo) {
			t.metrics.StatesTerminated++
		} else {
			s := t.pool.get()
			h, _ := t.intern.Intern(fo)
			s.Objects = t.intern.Of(h)
			t.fold(s, f.FID, fo)
			t.setState(h, s)
			t.metrics.StatesCreated++
		}
	}

	return t.em.emit(t.collect(), t.cfg.Duration, t.useMarks)
}

// appendPending grows pend by one entry, reusing the parents capacity
// left behind by earlier frames when the backing array allows.
func appendPending(pend []pending, h objset.Handle, created bool) []pending {
	n := len(pend)
	if n < cap(pend) {
		pend = pend[:n+1]
		pend[n].h = h
		pend[n].created = created
		pend[n].parents = pend[n].parents[:0]
		return pend
	}
	return append(pend, pending{h: h, created: created})
}

// fold routes frame insertion through the marking rule for MFS; the Naive
// baseline stores bare frame sets (its validity check happens wholesale
// at emission).
func (t *table) fold(s *State, fid vr.FrameID, of objset.Set) {
	if t.useMarks {
		s.fold(fid, of)
	} else {
		s.frames.insert(fid, false)
	}
}

// unionSpans merges the frame sets of several states into spans of
// consecutive ids, ascending and neither overlapping nor touching, in the
// table's reusable buffer; the result is only valid until the next call.
// Marks are dropped: each span is a frameRun whose mark means nothing.
func (t *table) unionSpans(states []*State) []frameRun {
	out := t.spans[:0]
	for _, s := range states {
		out = append(out, s.frames.runs...)
	}
	if len(states) > 1 {
		slices.SortFunc(out, func(a, b frameRun) int { return cmp.Compare(a.first, b.first) })
	}
	// Coalesce in place: out[:k] holds the spans merged so far.
	k := 0
	for _, r := range out {
		if k > 0 && r.first <= out[k-1].end() {
			out[k-1].n = int32(max(out[k-1].end(), r.end()) - out[k-1].first)
			continue
		}
		out[k] = r
		k++
	}
	t.spans = out[:0]
	return out[:k]
}

// collect gathers the live states into the table's reusable buffer, in
// handle order (deterministic; the emitter re-sorts its output anyway).
func (t *table) collect() []*State {
	out := t.all[:0]
	for _, s := range t.states {
		if s != nil {
			out = append(out, s)
		}
	}
	t.all = out
	return out
}

// Naive is the baseline generator of §6.2: it maintains the frame set of
// every object set with no early pruning; invalid states are filtered out
// only at emission time by the group-by-frame-set maximality check.
type Naive struct{ table }

// NewNaive returns a Naive generator for the given window parameters.
// It panics if cfg is invalid.
func NewNaive(cfg Config) *Naive { return &Naive{*newTable(cfg, false)} }

// Name implements Generator.
func (*Naive) Name() string { return "NAIVE" }

// MFS is the Marked Frame Set generator of §4.2: states carry key-frame
// marks, and a state whose marked frames have all expired is invalid and
// is removed immediately, shrinking the set of states each arriving frame
// must be intersected with.
type MFS struct{ table }

// NewMFS returns an MFS generator for the given window parameters.
// It panics if cfg is invalid.
func NewMFS(cfg Config) *MFS { return &MFS{*newTable(cfg, true)} }

// Name implements Generator.
func (*MFS) Name() string { return "MFS" }
