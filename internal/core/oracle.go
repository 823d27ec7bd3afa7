package core

import (
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// Oracle is a brute-force reference generator used as ground truth in
// tests: for every frame it recomputes, from scratch, the closure system
// of the window's object sets (all distinct intersections of frame object
// sets), derives each closure's exact frame set, and emits the satisfied
// MCOSs. It maintains no incremental state, so its correctness follows
// directly from the definitions in §2 — at the cost of per-frame work that
// makes it unusable beyond small inputs.
type Oracle struct {
	cfg    Config
	window []vr.Frame
	next   vr.FrameID
	em     emitter
}

// NewOracle returns a brute-force reference generator.
// It panics if cfg is invalid.
func NewOracle(cfg Config) *Oracle {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Oracle{cfg: cfg}
}

// Name implements Generator.
func (*Oracle) Name() string { return "ORACLE" }

// StateCount and Next implement Generator; the oracle holds no states
// between frames, so StateCount reports the window length instead.
func (o *Oracle) StateCount() int  { return len(o.window) }
func (o *Oracle) Next() vr.FrameID { return o.next }

// Process implements Generator.
func (o *Oracle) Process(f vr.Frame) []*State {
	if f.FID != o.next {
		panic("core: frames must be processed in order starting at 0")
	}
	o.next++
	// Same input-ownership contract as the incremental generators: the
	// window retains the frame, so detach borrowed frames from the
	// caller's storage; Owned frames transfer theirs.
	f.Objects = retainObjects(f)
	o.window = append(o.window, f)
	if len(o.window) > o.cfg.Window {
		o.window = o.window[1:]
	}

	// Closure system: every distinct intersection of one or more window
	// frame object sets. Iterate to fixpoint: seed with the frames' own
	// sets, then intersect every known closure with every frame set.
	closures := make(map[string]objset.Set)
	var queue []objset.Set
	add := func(s objset.Set) {
		if s.IsEmpty() {
			return
		}
		k := s.Key()
		if _, ok := closures[k]; !ok {
			closures[k] = s
			queue = append(queue, s)
		}
	}
	for _, fr := range o.window {
		add(fr.Objects)
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, fr := range o.window {
			add(s.Intersect(fr.Objects))
		}
	}

	// For each closure X, its frame set is exactly the window frames
	// whose object set contains X; by construction X is the maximum
	// co-occurrence object set of that frame set.
	var out []*State
	for _, x := range closures {
		var frames []vr.FrameID
		for _, fr := range o.window {
			if x.SubsetOf(fr.Objects) {
				frames = append(frames, fr.FID)
			}
		}
		if len(frames) < o.cfg.Duration || len(frames) == 0 {
			continue
		}
		if o.cfg.Terminate != nil && o.cfg.Terminate(x) {
			continue
		}
		s := &State{Objects: x}
		for _, fid := range frames {
			s.frames.insert(fid, true)
		}
		out = append(out, s)
	}

	// Distinct closures can still share a frame set only if one is not
	// maximal — impossible here because the closure of that frame set is
	// itself in the system and strictly larger; drop the smaller ones.
	// The emitter also sorts by object set, matching the incremental
	// generators' ordering exactly.
	return o.em.emit(out, o.cfg.Duration, true)
}
