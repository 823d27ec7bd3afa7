package core

import (
	"fmt"
	"slices"

	"tvq/internal/arena"
	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// Generator state codecs. A generator's complete incremental state —
// states with their frame sets and key-frame marks, the window buffer,
// and for SSG the whole graph — is serialized so a restored generator
// goes on to emit exactly what the original would have. States are
// written in sorted order so the encoding is deterministic; decoding
// validates structural invariants (sorted sets, frame ids before the
// cursor, blockers outside the state's objects, no state Terminate
// refuses, in-range graph indices, reciprocal edges to subsets, every
// parentless SSG node a root with a processed key frame) and returns
// errors, never panics, on malformed input.

// Generator kind tags in the wire format.
const (
	genKindNaive = "naive"
	genKindMFS   = "mfs"
	genKindSSG   = "ssg"
)

// EncodeGenerator serializes g's full state. Only the three paper
// strategies are supported; the test-only Oracle is rejected.
func EncodeGenerator(w *snapshot.Writer, g Generator) error {
	switch g := g.(type) {
	case *Naive:
		w.String(genKindNaive)
		g.table.encode(w)
		return nil
	case *MFS:
		w.String(genKindMFS)
		g.table.encode(w)
		return nil
	case *SSG:
		w.String(genKindSSG)
		return g.encode(w)
	default:
		return fmt.Errorf("core: cannot snapshot generator %T", g)
	}
}

// DecodeGenerator reconstructs a generator serialized by
// EncodeGenerator, using cfg for the window parameters (and the
// Terminate predicate, which closures cannot be serialized and must be
// rebuilt by the caller exactly as at construction time).
func DecodeGenerator(r *snapshot.Reader, cfg Config) (Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	kind := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case genKindNaive:
		t := newTable(cfg, false)
		if err := t.decode(r); err != nil {
			return nil, err
		}
		return &Naive{*t}, nil
	case genKindMFS:
		t := newTable(cfg, true)
		if err := t.decode(r); err != nil {
			return nil, err
		}
		return &MFS{*t}, nil
	case genKindSSG:
		g := NewSSG(cfg)
		if err := g.decode(r); err != nil {
			return nil, err
		}
		return g, nil
	default:
		return nil, fmt.Errorf("core: unknown generator kind %q in snapshot", kind)
	}
}

// encodeSet writes an object set in the delta encoding shared with the
// binary wire protocol (vr.AppendSet). The encoding is
// representation-independent: sparse and dense sets with the same
// members encode identically, so snapshots survive representation
// changes in either direction.
func encodeSet(w *snapshot.Writer, s objset.Set) {
	w.AppendWith(func(dst []byte) []byte { return vr.AppendSet(dst, s) })
}

// slabs is what one generator payload decodes into, so that a restore
// takes a few large blocks instead of several allocations per state:
// the State structs come from one slice sized by the state count, the
// frame lists from chunked arenas, and every object set — state,
// blocker and window ring — from an objset.Slab. Each list and set is
// capped at its own length: statePool.put keeps a dead state's
// frames.entries[:0] for the next state, push appends in place and
// blockers shrink in place, so an uncapped list would let one state
// overwrite its neighbour.
type slabs struct {
	states  []State // not yet handed out
	entries arena.Chunks[frameEntry]
	sets    objset.Slab
	ids     []objset.ID // one set's ids, as the wire decoder appends them
}

// set reads an object set through the shared wire decoder, which
// verifies the strictly-increasing invariant objset.FromSorted would
// otherwise panic on (and uint32 range) before it sizes anything, and
// builds it in the slab in the representation objset.Compact picks.
func (sl *slabs) set(r *snapshot.Reader) objset.Set {
	var s objset.Set
	r.Consume(func(data []byte) (int, error) {
		ids, n, err := vr.AppendSetIDs(sl.ids[:0], data)
		sl.ids = ids
		if err != nil {
			return 0, err
		}
		s = sl.sets.FromSorted(ids)
		return n, nil
	})
	return s
}

// encodeState writes one state: object set, the frame entries with marks
// from minFID on (older ones have left the window but may not have been
// expired yet), rest-closure blockers, and a false byte where a
// termination flag used to be.
func encodeState(w *snapshot.Writer, s *State, minFID vr.FrameID) {
	encodeSet(w, s.Objects)
	live := s.frames.live()
	for len(live) > 0 && live[0].fid() < minFID {
		live = live[1:]
	}
	w.Uvarint(uint64(len(live)))
	for _, e := range live {
		w.Varint(e.fid())
		w.Bool(e.marked())
	}
	w.Bool(s.frames.hasExtra)
	if s.frames.hasExtra {
		encodeSet(w, s.extra)
	}
	w.Bool(false)
}

// state reads one state into the next struct of the slab, which the
// caller sized by the state count.
func (sl *slabs) state(r *snapshot.Reader, next vr.FrameID) *State {
	s := &sl.states[0]
	sl.states = sl.states[1:]
	s.Objects = sl.set(r)
	n := r.Count(2)
	s.frames.entries = sl.entries.Take(n)[:0]
	for i := 0; i < n; i++ {
		fid := r.Varint()
		marked := r.Bool()
		if fid < minPackedFID || fid > maxPackedFID {
			r.Fail("state frame %d (entry %d) outside [%d, %d]", fid, i, minPackedFID, maxPackedFID)
			return s
		}
		if fid >= next || i > 0 && s.frames.entries[i-1].fid() >= fid {
			r.Fail("state frame %d (entry %d) out of order or not before frame %d", fid, i, next)
			return s
		}
		s.frames.entries = append(s.frames.entries, newFrameEntry(fid, marked))
		s.frames.sum += mixFID(fid)
		if marked {
			s.frames.marks++
		}
	}
	if s.frames.hasExtra = r.Bool(); s.frames.hasExtra {
		if s.extra = sl.set(r); s.extra.Intersects(s.Objects) {
			r.Fail("state %s has blockers %s among its objects", s.Objects, s.extra)
		}
	}
	if r.Bool() {
		r.Fail("state carries a termination flag")
	}
	return s
}

func encodeMetrics(w *snapshot.Writer, m Metrics) {
	w.Int(m.FramesProcessed)
	w.Int(m.StatesCreated)
	w.Int(m.StatesPruned)
	w.Int(m.StatesTerminated)
	w.Varint(m.Intersections)
	w.Varint(m.StatesVisited)
}

func decodeMetrics(r *snapshot.Reader) Metrics {
	return Metrics{
		FramesProcessed:  r.Int(),
		StatesCreated:    r.Int(),
		StatesPruned:     r.Int(),
		StatesTerminated: r.Int(),
		Intersections:    r.Varint(),
		StatesVisited:    r.Varint(),
	}
}

// encodeWindow writes the window buffer as (frame id, object set) pairs
// in fid order; fw.next is written by the caller, ahead of the metrics.
func encodeWindow(w *snapshot.Writer, fw *frameWindow) {
	first := max(0, fw.next-vr.FrameID(len(fw.sets)))
	w.Uvarint(uint64(fw.next - first))
	for fid := first; fid < fw.next; fid++ {
		w.Varint(fid)
		s, _ := fw.at(fid)
		encodeSet(w, s)
	}
}

// window reads what encodeWindow wrote into fw, which must be sized for
// the generator's window and already carry next (≥ 0); a frame outside
// [next−w, next) has no slot there and is rejected.
func (sl *slabs) window(r *snapshot.Reader, fw *frameWindow) {
	if fw.next < 0 {
		r.Fail("negative frame cursor %d", fw.next)
	}
	if fw.next > maxPackedFID {
		r.Fail("frame cursor %d past %d", fw.next, maxPackedFID)
	}
	n := r.Count(2)
	prev := vr.FrameID(-1)
	for i := 0; i < n; i++ {
		fid := r.Varint()
		if fid <= prev {
			r.Fail("window frame ids not strictly increasing: %d then %d", prev, fid)
			return
		}
		if _, ok := fw.at(fid); !ok {
			r.Fail("window frame %d outside the %d frames before %d", fid, len(fw.sets), fw.next)
			return
		}
		prev = fid
		*fw.slot(fid) = sl.set(r)
		if r.Err() != nil {
			return
		}
	}
}

// encode writes the flat table shared by Naive and MFS. cfg and useMarks
// are reconstructed by the caller, not serialized. States are written in
// canonical object-set order so the encoding is deterministic regardless
// of handle assignment history.
func (t *table) encode(w *snapshot.Writer) {
	w.Varint(t.window.next)
	encodeMetrics(w, t.metrics)
	encodeWindow(w, &t.window)
	states := make([]*State, 0, t.live)
	for _, s := range t.states {
		if s != nil {
			states = append(states, s)
		}
	}
	slices.SortFunc(states, func(a, b *State) int { return objset.Compare(a.Objects, b.Objects) })
	w.Uvarint(uint64(len(states)))
	for _, s := range states {
		encodeState(w, s, t.window.next-vr.FrameID(t.cfg.Window))
	}
}

func (t *table) decode(r *snapshot.Reader) error {
	var sl slabs
	t.window.next = r.Varint()
	t.metrics = decodeMetrics(r)
	sl.window(r, &t.window)
	n := r.Count(2)
	sl.states = make([]State, n)
	t.states = make([]*State, 0, n)
	t.intern.Reserve(n)
	for i := 0; i < n; i++ {
		s := sl.state(r, t.window.next)
		if r.Err() != nil {
			return r.Err()
		}
		if s.Objects.IsEmpty() || t.cfg.Terminate != nil && t.cfg.Terminate(s.Objects) {
			r.Fail("state %s is empty or terminated", s.Objects)
			return r.Err()
		}
		h, created := t.intern.Adopt(s.Objects)
		if !created {
			r.Fail("duplicate state for object set %s", s.Objects)
			return r.Err()
		}
		t.setState(h, s)
	}
	return r.Err()
}

// encode writes the strict state graph: every live node (in canonical
// object-set-key order) with its edges by node index, then the traversal
// root order, an empty principal-state list, and the previous result
// set. Entries of rootOrder that the lazy compaction would drop anyway
// (dead or re-parented nodes) are skipped, which is exactly the state
// liveRoots would leave behind. Encoding only reads the generator: frame
// ids that left the window are skipped rather than expired. Nodes no
// longer record principal frames, but the per-node count and the list
// stay in the layout, empty, so snapshots written before and after that
// change decode on either side of it.
func (g *SSG) encode(w *snapshot.Writer) error {
	minFID := g.window.next - vr.FrameID(g.cfg.Window)
	w.Varint(g.window.next)
	encodeMetrics(w, g.metrics)
	encodeWindow(w, &g.window)

	live := make([]*ssgNode, 0, g.live)
	for _, n := range g.nodes {
		if n != nil {
			live = append(live, n)
		}
	}
	slices.SortFunc(live, func(a, b *ssgNode) int { return objset.Compare(a.state.Objects, b.state.Objects) })
	// A live node's position in that order, by its handle; a node is in
	// the graph when its handle leads back to it.
	idx := make([]int32, len(g.nodes))
	for i, n := range live {
		idx[n.handle] = int32(i)
	}
	index := func(n *ssgNode) (uint64, error) {
		if int(n.handle) >= len(g.nodes) || g.nodes[n.handle] != n {
			return 0, fmt.Errorf("core: ssg edge to a node outside the graph")
		}
		return uint64(idx[n.handle]), nil
	}
	writeEdges := func(nodes []*ssgNode) error {
		w.Uvarint(uint64(len(nodes)))
		for _, n := range nodes {
			i, err := index(n)
			if err != nil {
				return err
			}
			w.Uvarint(i)
		}
		return nil
	}

	w.Uvarint(uint64(len(live)))
	for _, n := range live {
		encodeState(w, n.state, minFID)
		w.Varint(n.visited)
		w.Varint(n.createdAt)
		w.Uvarint(0) // principal frames
		if err := writeEdges(n.children); err != nil {
			return err
		}
		if err := writeEdges(n.parents); err != nil {
			return err
		}
	}

	var roots []*ssgNode
	for _, n := range g.rootOrder {
		if !n.dead && len(n.parents) == 0 {
			roots = append(roots, n)
		}
	}
	if err := writeEdges(roots); err != nil {
		return err
	}
	w.Uvarint(0) // principal states
	// Canonical node order keeps the bytes deterministic; results are
	// collected after the frame's removals, so every entry is live.
	results := make([]uint64, len(g.results))
	for k, n := range g.results {
		i, err := index(n)
		if err != nil {
			return err
		}
		results[k] = i
	}
	slices.Sort(results)
	w.Uvarint(uint64(len(results)))
	for _, i := range results {
		w.Uvarint(i)
	}
	return nil
}

func (g *SSG) decode(r *snapshot.Reader) error {
	var sl slabs
	g.window.next = r.Varint()
	g.metrics = decodeMetrics(r)
	sl.window(r, &g.window)

	count := r.Count(4)
	if r.Err() != nil {
		return r.Err()
	}
	sl.states = make([]State, count)
	slab := make([]ssgNode, count)
	nodes := make([]*ssgNode, count)
	g.nodes = make([]*ssgNode, 0, count)
	g.intern.Reserve(count)
	// Every edge list, by node index, goes into one arena: list j is
	// edges[ends[j]:ends[j+1]], node i's children list 2i and its parents
	// list 2i+1.
	var edges []int32
	ends := make([]int32, 2*count+1)
	readEdges := func() []int32 {
		from := len(edges)
		for i, n := 0, r.Count(1); i < n; i++ {
			e := r.Uvarint()
			if e >= uint64(count) {
				r.Fail("node index %d out of range [0, %d)", int(e), count)
				break
			}
			edges = append(edges, int32(e))
		}
		return edges[from:]
	}

	minFID := g.window.next - vr.FrameID(g.cfg.Window)
	for i := 0; i < count; i++ {
		n := &slab[i]
		n.state, n.lastMark, n.decoded = sl.state(r, g.window.next), -1, true
		n.visited = r.Varint()
		n.createdAt = r.Varint()
		for j, nc := 0, r.Count(1); j < nc; j++ {
			r.Varint() // a principal frame: written by older encoders, unused
		}
		readEdges()
		ends[2*i+1] = int32(len(edges))
		readEdges()
		ends[2*i+2] = int32(len(edges))
		if r.Err() != nil {
			return r.Err()
		}
		if n.state.Objects.IsEmpty() || g.cfg.Terminate != nil && g.cfg.Terminate(n.state.Objects) {
			r.Fail("ssg node %s is empty or terminated", n.state.Objects)
			return r.Err()
		}
		for _, e := range n.state.frames.live() {
			if e.marked() {
				n.lastMark = e.fid()
			}
		}
		if n.lastMark < 0 {
			r.Fail("ssg node %s has no key frame before frame %d", n.state.Objects, g.window.next)
			return r.Err()
		}
		h, created := g.intern.Adopt(n.state.Objects)
		if !created {
			r.Fail("duplicate ssg node for object set %s", n.state.Objects)
			return r.Err()
		}
		n.handle, n.sig = h, n.state.Objects.Sig()
		nodes[i] = n
		g.setNode(h, n)
	}

	// Link edges, each to a proper subset, and verify that the children and
	// parents lists describe the same edge set, so a crafted payload cannot
	// smuggle in a cycle or a one-sided edge that corrupts traversal. The
	// lists share one arena of nodes; each is capped at its own length, so
	// the first append to one moves it out.
	links := make([]*ssgNode, len(edges))
	for k, e := range edges {
		links[k] = nodes[e]
	}
	for i, n := range nodes {
		from, mid, to := ends[2*i], ends[2*i+1], ends[2*i+2]
		n.children, n.parents = links[from:mid:mid], links[mid:to:to]
		for _, c := range n.children {
			if !c.state.Objects.SubsetOf(n.state.Objects) {
				r.Fail("ssg edge from %s to %s, not a subset", n.state.Objects, c.state.Objects)
				return r.Err()
			}
		}
	}
	if d := disagreeingEdges(edges, ends); d != 0 {
		r.Fail("ssg children and parents lists disagree on %d edges", d)
		return r.Err()
	}

	roots := readEdges()
	if r.Err() != nil {
		return r.Err()
	}
	g.rootOrder = make([]*ssgNode, 0, len(roots))
	for _, i := range roots {
		n := nodes[i]
		if n.onRootList || len(n.parents) > 0 {
			r.Fail("node %d appears twice in root order or has parents", i)
			return r.Err()
		}
		n.onRootList = true
		g.rootOrder = append(g.rootOrder, n)
	}
	readEdges() // principal states: written by older encoders, unused
	results := readEdges()
	if r.Err() != nil {
		return r.Err()
	}
	g.results = make([]*ssgNode, 0, len(results))
	for _, i := range results {
		g.results = append(g.results, nodes[i])
	}
	// A node whose key frames have all left the window, which an encoder
	// that did not expire before writing may have kept, is removed here as
	// the ring would have removed it, and leaves the result set with it.
	// Traversal starts from the roots, so every parentless node is one.
	g.carveDue(nodes, minFID)
	for _, n := range nodes {
		if len(n.parents) == 0 && !n.onRootList {
			r.Fail("ssg node %s has no parent and is not a root", n.state.Objects)
			return r.Err()
		}
		g.file(n, minFID)
	}
	g.results = slices.DeleteFunc(g.results, func(n *ssgNode) bool { return n.dead })
	g.relistFolded(r)
	return r.Err()
}

// carveDue sizes each slot of the expiry ring for the nodes file is
// about to put there, carving the slots from one block. Each slot is
// capped at its own length, so one that outgrows it later moves out.
func (g *SSG) carveDue(nodes []*ssgNode, minFID vr.FrameID) {
	per := make([]int, len(g.due))
	total := 0
	for _, n := range nodes {
		if n.lastMark >= minFID {
			per[n.lastMark%vr.FrameID(len(per))]++
			total++
		}
	}
	block := make([]*ssgNode, total)
	for i, k := range per {
		g.due[i], block = block[:0:k], block[k:]
	}
}

// disagreeingEdges counts the edges (p, c) that p's children list and
// c's parents list name a different number of times, over the edge
// arena SSG.decode reads. It transposes the parents lists — for each p,
// the nodes whose parents list names p — and compares each with p's
// children list as a multiset.
func disagreeingEdges(edges, ends []int32) int {
	count := len(ends) / 2
	parentsOf := func(c int) []int32 { return edges[ends[2*c+1]:ends[2*c+2]] }
	named := make([]int32, count+1) // named by p: back[named[p]:named[p+1]]
	for c := 0; c < count; c++ {
		for _, p := range parentsOf(c) {
			named[p+1]++
		}
	}
	for p := 0; p < count; p++ {
		named[p+1] += named[p]
	}
	back := make([]int32, named[count])
	net := make([]int32, count)
	copy(net, named) // the fill cursor first, then each node's net count
	for c := 0; c < count; c++ {
		for _, p := range parentsOf(c) {
			back[net[p]] = int32(c)
			net[p]++
		}
	}
	clear(net)
	d := 0
	for p := 0; p < count; p++ {
		kids, by := edges[ends[2*p]:ends[2*p+1]], back[named[p]:named[p+1]]
		for _, c := range kids {
			net[c]++
		}
		for _, c := range by {
			net[c]--
		}
		for _, list := range [2][]int32{kids, by} {
			for _, c := range list {
				if net[c] != 0 {
					d++ // once per edge: the count is cleared
					net[c] = 0
				}
			}
		}
	}
	return d
}

// relistFolded rebuilds the list of nodes the last frame was folded
// into, which is not serialized: frame sets are exact, so it is the
// nodes whose frame set ends with that frame. The next frame's step 1
// folds a listed node whose signature misses the departures without an
// intersection, which is sound only for a subset of that frame, so a
// node that is not one is rejected.
func (g *SSG) relistFolded(r *snapshot.Reader) {
	last, _ := g.window.at(g.window.next - 1)
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		if fl := n.state.frames.live(); len(fl) > 0 && fl[len(fl)-1].fid() == g.window.next-1 {
			if !n.state.Objects.SubsetOf(last) {
				r.Fail("ssg node %s lists frame %d, which lacks it", n.state.Objects, g.window.next-1)
				return
			}
			g.folded = append(g.folded, n)
		}
	}
}
