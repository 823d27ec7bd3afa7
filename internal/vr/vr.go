// Package vr defines the structured relation that the object detection and
// tracking layer extracts from a video feed: tuples (fid, id, class)
// recording that the object with identifier id, of the given class, was
// detected in frame fid (the paper's relation VR, §2).
//
// The package also provides frame-level views of the relation, streaming
// codecs for persisting traces, a sliding-window buffer, and the dataset
// statistics reported in Table 6 of the paper.
package vr

import (
	"fmt"

	"tvq/internal/objset"
)

// FrameID indexes a frame within a feed; frames are numbered from 0 in
// presentation order.
type FrameID = int64

// Class is a small integer identifying an object class (person, car, …).
// Class values are assigned by a Registry.
type Class uint16

// Tuple is one row of the structured relation VR(fid, id, class).
type Tuple struct {
	FID   FrameID
	ID    objset.ID
	Class Class
}

// Registry maps between class names and compact Class values. The zero
// value is ready to use. Registries are not safe for concurrent mutation.
type Registry struct {
	names []string
	index map[string]Class
}

// NewRegistry returns a registry pre-populated with the given class names
// in order.
func NewRegistry(names ...string) *Registry {
	r := &Registry{index: make(map[string]Class)}
	for _, n := range names {
		r.Class(n)
	}
	return r
}

// StandardRegistry returns a registry with the four classes the paper's
// experiments detect: person, car, truck, bus (§6.1).
func StandardRegistry() *Registry {
	return NewRegistry("person", "car", "truck", "bus")
}

// Class returns the Class value for name, assigning a new one if the name
// has not been seen before.
func (r *Registry) Class(name string) Class {
	if r.index == nil {
		r.index = make(map[string]Class)
	}
	if c, ok := r.index[name]; ok {
		return c
	}
	c := Class(len(r.names))
	r.names = append(r.names, name)
	r.index[name] = c
	return c
}

// Lookup returns the Class for name and whether it is registered.
func (r *Registry) Lookup(name string) (Class, bool) {
	c, ok := r.index[name]
	return c, ok
}

// Name returns the name for class c, or "" if unknown.
func (r *Registry) Name(c Class) string {
	if int(c) >= len(r.names) {
		return ""
	}
	return r.names[c]
}

// Len returns the number of registered classes.
func (r *Registry) Len() int { return len(r.names) }

// Names returns all registered class names in Class order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Frame is the per-frame view of the relation: the set of objects detected
// in one frame together with their classes.
type Frame struct {
	FID     FrameID
	Objects objset.Set
	// Classes maps each object in Objects to its class. The map is
	// shared with the feed-wide class table when frames come from a
	// Trace; callers must treat it as read-only.
	Classes map[objset.ID]Class
	// Owned transfers ownership of the frame's object-set storage to the
	// consumer: a frame marked Owned promises that nothing else aliases
	// or will reuse Objects' backing storage, so the engine may retain
	// the set directly (read-only, forever) instead of cloning it.
	//
	// Leave Owned false — the safe default — whenever the producer keeps
	// or reuses the storage: the engine then treats the frame as
	// borrowed and copies what it retains. Decoders that allocate fresh
	// storage per frame (the binary wire codec) set Owned; the JSONL
	// path stays borrowed. Once a frame marked Owned has been handed to
	// Process, the producer must not mutate Objects again (concurrent
	// read-only sharing across window groups and pool shards relies on
	// the set being immutable).
	Owned bool
}

// ClassOf returns the class of object id in this frame.
func (f Frame) ClassOf(id objset.ID) Class { return f.Classes[id] }

// Trace is an in-memory materialized feed: the full relation grouped by
// frame, plus the feed-wide object→class table. Object classes are stable
// across frames (tracking guarantees identifier persistence, §2), so a
// single table serves every frame.
type Trace struct {
	frames  []Frame
	classes map[objset.ID]Class
}

// MaxTraceFrames bounds the number of frames NewTrace will materialize.
// Frames are densified from 0 to the maximum frame id seen, so a single
// malformed tuple with a huge frame id would otherwise demand an
// allocation proportional to that id, not to the input size. The
// default (about 9.7 hours of 30 fps video) is far beyond the in-memory
// traces this representation targets; callers with a legitimate larger
// feed can raise it.
var MaxTraceFrames = FrameID(1 << 20)

// NewTrace builds a Trace from tuples. Tuples may arrive in any order;
// they are grouped by frame id and frames are materialized densely from 0
// to the maximum frame id seen (frames with no detections are empty).
// NewTrace reports an error if the same object id is recorded with two
// different classes, which would indicate a corrupt trace, or if a frame
// id reaches MaxTraceFrames.
func NewTrace(tuples []Tuple) (*Trace, error) {
	classes := make(map[objset.ID]Class)
	perFrame := make(map[FrameID][]objset.ID)
	var maxFID FrameID = -1
	for _, t := range tuples {
		if t.FID < 0 {
			return nil, fmt.Errorf("vr: negative frame id %d", t.FID)
		}
		if t.FID >= MaxTraceFrames {
			return nil, fmt.Errorf("vr: frame id %d exceeds MaxTraceFrames (%d)", t.FID, MaxTraceFrames)
		}
		if c, ok := classes[t.ID]; ok && c != t.Class {
			return nil, fmt.Errorf("vr: object %d has conflicting classes %d and %d", t.ID, c, t.Class)
		}
		classes[t.ID] = t.Class
		perFrame[t.FID] = append(perFrame[t.FID], t.ID)
		if t.FID > maxFID {
			maxFID = t.FID
		}
	}
	tr := &Trace{classes: classes}
	for fid := FrameID(0); fid <= maxFID; fid++ {
		tr.frames = append(tr.frames, Frame{
			FID:     fid,
			Objects: objset.New(perFrame[fid]...),
			Classes: classes,
		})
	}
	return tr, nil
}

// NewTraceFromFrames builds a Trace directly from per-frame object sets.
// classes maps every object id appearing in any frame to its class.
func NewTraceFromFrames(frames []objset.Set, classes map[objset.ID]Class) *Trace {
	tr := &Trace{classes: classes}
	for i, s := range frames {
		tr.frames = append(tr.frames, Frame{FID: FrameID(i), Objects: s, Classes: classes})
	}
	return tr
}

// Len returns the number of frames.
func (t *Trace) Len() int { return len(t.frames) }

// Frame returns frame i.
func (t *Trace) Frame(i int) Frame { return t.frames[i] }

// Frames returns all frames in order. The slice is shared; treat as
// read-only.
func (t *Trace) Frames() []Frame { return t.frames }

// Classes returns the feed-wide object→class table (read-only).
func (t *Trace) Classes() map[objset.ID]Class { return t.classes }

// ClassOf returns the class of object id.
func (t *Trace) ClassOf(id objset.ID) Class { return t.classes[id] }

// Prefix returns a trace containing only the first n frames. The
// underlying frames and class table are shared.
func (t *Trace) Prefix(n int) *Trace {
	if n > len(t.frames) {
		n = len(t.frames)
	}
	return &Trace{frames: t.frames[:n], classes: t.classes}
}

// Tuples flattens the trace back into relation rows, ordered by (fid, id).
func (t *Trace) Tuples() []Tuple {
	var out []Tuple
	for _, f := range t.frames {
		for _, id := range f.Objects.IDs() {
			out = append(out, Tuple{FID: f.FID, ID: id, Class: t.classes[id]})
		}
	}
	return out
}

// Stats are the per-dataset statistics the paper reports in Table 6.
type Stats struct {
	Frames       int     // total number of frames
	Objects      int     // number of unique object ids
	ObjPerFrame  float64 // average objects per frame (Obj/F)
	OccPerObj    float64 // average occlusions per object (Occ/Obj)
	FramesPerObj float64 // average frames in which each object appears (F/Obj)
}

// ComputeStats derives Table 6 statistics from a trace. An occlusion is
// counted each time an object that was absent reappears after having been
// seen before (one gap in an object's presence = one occlusion), matching
// the paper's use of tracking-level occlusion counts.
func ComputeStats(t *Trace) Stats {
	type span struct {
		appearances int
		last        FrameID
		gaps        int
		seen        bool
	}
	objs := make(map[objset.ID]*span)
	for _, f := range t.frames {
		for _, id := range f.Objects.IDs() {
			s := objs[id]
			if s == nil {
				s = &span{}
				objs[id] = s
			}
			if s.seen && f.FID > s.last+1 {
				s.gaps++
			}
			s.appearances++
			s.last = f.FID
			s.seen = true
		}
	}
	st := Stats{Frames: t.Len(), Objects: len(objs)}
	if st.Frames == 0 || st.Objects == 0 {
		return st
	}
	totalApp, totalGaps := 0, 0
	for _, s := range objs {
		totalApp += s.appearances
		totalGaps += s.gaps
	}
	st.ObjPerFrame = float64(totalApp) / float64(st.Frames)
	st.OccPerObj = float64(totalGaps) / float64(st.Objects)
	st.FramesPerObj = float64(totalApp) / float64(st.Objects)
	return st
}

// UniqueObjectSets returns the number of distinct per-frame object sets in
// the trace — the quantity λ-related analysis in §4.3.8 depends on.
func UniqueObjectSets(t *Trace) int {
	seen := make(map[string]bool)
	for _, f := range t.frames {
		seen[f.Objects.Key()] = true
	}
	return len(seen)
}
