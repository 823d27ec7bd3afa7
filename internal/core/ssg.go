package core

import (
	"math/bits"
	"slices"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// SSG is the Strict State Graph generator of §4.3. States are nodes of a
// directed graph whose edges point from a state to states generated from
// it, so an edge (s, s') implies IDs' ⊂ IDs (Property 1) and no two
// children of a node contain one another (Property 2). The State
// Traversal (ST) algorithm walks the graph from its roots and skips the
// entire subtree of a node that cannot be affected — subsets of a
// disjoint set are disjoint too — which is the pruning power the paper
// attributes to the graph. CNPS (Connecting the New Principal State,
// §4.3.5) then links the frame's own state to the largest states below
// it without violating Property 2.
//
// ST runs on the frame's change, not on the frame (DESIGN.md "State
// Traversal on the frame's change"). With F the arriving object set, F′
// the previous frame's and A = F ∖ F′ the arrivals:
//
//  1. every state the previous frame folded (the under-list: exactly the
//     live states ⊆ F′) is intersected with F, without recursion. For a
//     state S that no arrival touches, S ∩ F = (S ∩ F′) ∩ F, and S ∩ F′
//     is on the under-list, so this alone maintains S ∩ F;
//  2. only if A ≠ ∅, Algorithm 1 runs from the roots with its pruning
//     test applied to A: a node disjoint from A is skipped with its
//     subtree, a node meeting A gets the full prune → intersect with F →
//     apply step. Every state meeting A is reached, because its
//     ancestors are supersets and meet A too. A node whose parent's
//     IDparent ∩ F is a subset of it has that same intersection, so it
//     takes the parent's target without intersecting (see maintain).
//
// On the first frame and after an empty frame the under-list is empty
// and A = F: that case is the paper's ST. Each node carries a 64-bit
// signature of its object set, and disjoint signatures prove disjoint
// sets, so many tests of both steps are decided without loading the
// node's state.
//
// Expiry is exact (DESIGN.md "Exact expiry"): a node is valid while its
// newest key frame is in the window (Theorem 1), so it is filed on a ring
// of w slots under that frame and removed on the frame that frame leaves
// the window, the frame on which MFS drops the same state.
//
// Node lookup is by interned object-set handle (one hash of the id
// stream plus an integer compare, no key strings), and traversal
// intersections go into a reusable scratch buffer. What dies with a
// node is recycled: its state's struct, frame list and blocker storage
// go to a pool, and its edge arrays to bounded free lists (see
// edgeLists). Once the free lists are warm, a created node allocates
// its node struct and its interned object set, plus the odd growth of
// a table or scratch buffer: node structs stay unpooled because stale
// pointers to dead nodes are told apart by their dead flag, and object
// sets because results share them (DESIGN.md "State pooling").
type SSG struct {
	cfg    Config
	intern *objset.Interner
	nodes  []*ssgNode // indexed by objset.Handle; nil when no such node
	live   int

	// rootOrder lists traversal entry points (parentless nodes) in the
	// order they became roots; dead or re-parented entries are skipped
	// and compacted lazily. The paper visits principal states in arrival
	// order; parentless nodes are their generalization once principal
	// states expire but their subtrees remain live.
	rootOrder []*ssgNode

	// due is the expiry ring: a filed node sits in slot lastMark mod w,
	// and slot f mod w is popped at frame f, when frame f−w leaves the
	// window.
	due [][]*ssgNode

	// results is the previous frame's result node set (§4.3.7);
	// resultsNext is the double buffer the next set is built into.
	results     []*ssgNode
	resultsNext []*ssgNode

	metrics Metrics
	// inherited counts the nodes maintain decided by their parent's
	// target rather than by an intersection; it is not a Metrics field,
	// so snapshots do not carry it.
	inherited int64

	// window buffers the object set of each live frame for the marking
	// rule (State.fold) when parents' frames merge into new states, and
	// numbers the frames: window.next is the id Process expects.
	window frameWindow

	// folded lists the nodes the current frame was folded into — every
	// live state ⊆ F once the traversal is done — and under is the same
	// list for the previous frame, which step 1 walks. The two swap each
	// frame. Entries may have died since they were listed; nodes are never
	// recycled, so a stale pointer is detected by its dead flag.
	folded []*ssgNode
	under  []*ssgNode

	// scratch, reused across frames
	stack      []*ssgNode // child snapshots for the recursive traversal
	cands      []*ssgNode // CNPS candidates
	sizeStart  []int      // CNPS counting-sort table, by |IDns| − size
	arrived    []objset.ID
	buf        objset.Scratch
	em         emitter
	pool       statePool
	edges      edgeLists
	emitStates []*State
}

// ssgNode is packed into 112 bytes, a malloc size class: the bools sit
// in the padding after handle, and sig sits beside visited, which visit
// writes before it tests sig. One more word moves every node into the
// 128-byte class.
type ssgNode struct {
	state      *State
	handle     objset.Handle
	onRootList bool
	filed      bool // on the expiry ring
	dead       bool
	// decoded marks a node restored from a snapshot: its edge lists are
	// carved from the decoder's shared arena, which a kept array would
	// pin, so neither they nor what they grow into are recycled.
	decoded  bool
	children []*ssgNode
	parents  []*ssgNode

	// last is the node that held IDn ∩ F the last time that was a proper
	// subset of IDn. Frames repeat, so it is tried (if still alive and
	// still equal) before the intersection is hashed into the interner.
	last *ssgNode

	// visited holds the id of the last frame whose traversal tested this
	// node against the arrivals (Algorithm 1 lines 1-2).
	visited vr.FrameID

	// sig is state.Objects.Sig(), kept on the node so that a traversal
	// test the signature decides never loads the state.
	sig uint64

	// foldedAt is 1 + the id of the last frame folded into this node, so
	// a node reached from many parents is folded and listed once, and
	// collectResults can tell which previous results it meets again on
	// the folded list.
	foldedAt vr.FrameID

	// createdAt is the frame whose traversal created this node; a node
	// still being assembled in the current frame absorbs the frames of
	// every parent that generates it, while older nodes are already
	// exact and skip that merge.
	createdAt vr.FrameID

	// lastMark is the newest key frame folded into the node, −1 before
	// the first: the node is valid while it is in the window.
	lastMark vr.FrameID
}

// NewSSG returns a Strict State Graph generator for the given window
// parameters. It panics if cfg is invalid.
func NewSSG(cfg Config) *SSG {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &SSG{
		cfg:    cfg,
		intern: objset.NewInterner(),
		due:    make([][]*ssgNode, cfg.Window),
		window: newFrameWindow(cfg.Window),
	}
}

// Name implements Generator.
func (g *SSG) Name() string { return "SSG" }

// StateCount and Next implement Generator.
func (g *SSG) StateCount() int  { return g.live }
func (g *SSG) Next() vr.FrameID { return g.window.next }

// Metrics returns work counters accumulated so far.
func (g *SSG) Metrics() Metrics { return g.metrics }

// node returns the live node with interned handle h, or nil.
func (g *SSG) node(h objset.Handle) *ssgNode {
	if int(h) < len(g.nodes) {
		return g.nodes[h]
	}
	return nil
}

// setNode records n as the live node for handle h.
func (g *SSG) setNode(h objset.Handle, n *ssgNode) {
	for int(h) >= len(g.nodes) {
		g.nodes = append(g.nodes, nil)
	}
	g.nodes[h] = n
	g.live++
}

// newNode interns objects (cloning a scratch-backed value into owned
// storage) and creates its node with pooled state storage.
func (g *SSG) newNode(objects objset.Set, createdAt vr.FrameID) *ssgNode {
	h, _ := g.intern.Intern(objects)
	s := g.pool.get()
	s.Objects = g.intern.Of(h)
	n := &ssgNode{state: s, handle: h, sig: s.Objects.Sig(), createdAt: createdAt, lastMark: -1}
	g.setNode(h, n)
	g.metrics.StatesCreated++
	return n
}

// Process implements Generator: expiry, one round of the ST algorithm
// followed by CNPS, filing of the nodes the frame created, and
// result-set maintenance (§4.3.7).
func (g *SSG) Process(f vr.Frame) []*State {
	if f.FID != g.window.next {
		panic("core: frames must be processed in order starting at 0")
	}
	g.metrics.FramesProcessed++
	minFID := f.FID - vr.FrameID(g.cfg.Window) + 1
	// The window buffer (and any principal state interned from it)
	// outlives this call, so a borrowed frame is cloned: its storage
	// belongs to the caller and may be reused for the next frame. Clone
	// also picks the word-parallel bitmap form when the ids are dense.
	// An Owned frame's storage transfers to us, so Compact suffices.
	prev, _ := g.window.at(f.FID - 1) // before push: with w = 1 they share a slot
	f.Objects = g.window.push(f)
	g.under, g.folded = g.folded, g.under[:0]

	g.expire(f.FID, minFID)
	if !f.Objects.IsEmpty() {
		g.traverse(f, prev)
	}
	// Every node this frame created was folded into, so the folded list
	// holds all the nodes not yet on the ring.
	for _, n := range g.folded {
		if !n.filed {
			g.file(n, minFID)
		}
	}
	return g.collectResults(f, minFID)
}

// expire pops the ring slot of frame fid−w, the frame leaving the window:
// a node whose newest key frame that was is removed, and any other node
// there is refiled under its newer one. Refiling never targets the slot
// being popped, because no frame of that slot is in the window.
func (g *SSG) expire(fid, minFID vr.FrameID) {
	i := fid % vr.FrameID(len(g.due))
	slot := g.due[i]
	for _, n := range slot {
		g.file(n, minFID)
	}
	clear(slot)
	g.due[i] = slot[:0]
}

// file puts n on the expiry ring under its newest key frame, or removes
// it when it has none in the window that starts at minFID. It is the one
// place SSG removes a node: when the ring pops it, or at the end of the
// frame that created it without a key frame. Before frame w−1 the window
// starts below 0, so a node without a key frame (lastMark −1) is tested
// against 0: it has no ring slot.
func (g *SSG) file(n *ssgNode, minFID vr.FrameID) {
	if n.lastMark < max(minFID, 0) {
		g.removeNode(n)
		return
	}
	i := n.lastMark % vr.FrameID(len(g.due))
	g.due[i] = append(g.due[i], n)
	n.filed = true
}

// traverse runs ST on the frame's change, then creates/updates the
// frame's own principal state and connects it via CNPS.
func (g *SSG) traverse(f vr.Frame, prev objset.Set) {
	created := g.metrics.StatesCreated

	arrivals, departed := g.change(f.Objects, prev)

	// Step 1: the states the previous frame folded. The list is closed
	// under descendants (a subset of a state ⊆ F′ is ⊆ F′), so there is
	// nothing to recurse into, and none of its members meets an arrival,
	// so step 2 visits none of them again. Entries that expire removed at
	// the start of the frame are skipped. A member no departure touches is
	// ⊆ F′ ∖ D ⊆ F, so it co-occurs in F whole; when the signatures show
	// that, it is folded without the intersection.
	for _, n := range g.under {
		if n.dead {
			continue
		}
		g.metrics.StatesVisited++
		if n.sig&departed == 0 {
			g.metrics.Intersections++
			g.foldFrame(n, f)
			continue
		}
		g.maintain(n, f, nil)
	}

	// Step 2: Algorithm 1 from the roots, entering only subtrees an
	// arrival touches.
	if !arrivals.IsEmpty() {
		asig := arrivals.Sig()
		for _, r := range g.liveRoots() {
			g.visit(r, f, arrivals, asig, nil)
		}
	}

	// CNPS re-wires the graph below the principal state; with no state
	// created this frame there is nothing it could connect that was not
	// connected when the youngest of them was.
	if ns := g.ensurePrincipal(f); ns != nil && g.metrics.StatesCreated != created {
		g.connectPrincipal(ns)
	}
}

// change returns the frame's change against the previous frame: the
// arrivals A = F ∖ F′, in generator-owned scratch valid until the next
// call, and the signature of the departures D = F′ ∖ F.
func (g *SSG) change(cur, prev objset.Set) (arrivals objset.Set, departed uint64) {
	ids := prev.AppendTo(cur.AppendTo(g.arrived[:0]))
	g.arrived = ids[:0]
	now, was := ids[:cur.Len()], ids[cur.Len():]
	out, j := now[:0], 0 // A is written over the ids of F already read
	for _, id := range now {
		for ; j < len(was) && was[j] < id; j++ {
			departed |= 1 << (was[j] % 64)
		}
		if j < len(was) && was[j] == id {
			j++
			continue
		}
		out = append(out, id)
	}
	for _, id := range was[j:] {
		departed |= 1 << (id % 64)
	}
	return objset.FromSorted(out), departed
}

// visit implements one step of the ST algorithm on a live node not yet
// visited this frame: a node no arrival touches is skipped together with
// its subtree — the SSG pruning step, on A instead of F. asig is A's
// signature; a node whose signature misses it is turned away without
// loading its state. inh is the node the parent resolved to this frame,
// IDparent ∩ F, or nil (see maintain); n passes its own on to its
// children.
func (g *SSG) visit(n *ssgNode, f vr.Frame, arrivals objset.Set, asig uint64, inh *ssgNode) {
	n.visited = f.FID
	g.metrics.Intersections++
	if n.sig&asig == 0 || !n.state.Objects.Intersects(arrivals) {
		return
	}
	g.metrics.StatesVisited++

	// Snapshot the children onto the shared scratch stack: maintaining n
	// may re-home entries of n.children under a new child, but the
	// snapshot keeps this node's iteration stable without allocating.
	base := len(g.stack)
	g.stack = append(g.stack, n.children...)
	end := len(g.stack)
	inh = g.maintain(n, f, inh)

	// A target just attached under n needs no visit of its own (its
	// bookkeeping happened at creation); any children it acquired were
	// re-homed siblings already present in the snapshot.
	for i := base; i < end; i++ {
		if c := g.stack[i]; c.visited != f.FID {
			g.visit(c, f, arrivals, asig, inh)
		}
	}
	g.stack = g.stack[:base]
}

// maintain is what a frame does to one node (Algorithm 1 lines 3-5):
// materialize IDn ∩ F and fold the frame into it. Invalid nodes were
// removed before the traversal started (see expire). It returns the node
// holding IDn ∩ F — n itself when n ⊆ F — or nil when that is empty or
// the §5.3 strategy terminated it.
//
// inh, when not nil, is that node for a parent of n, IDparent ∩ F. If
// inh ⊆ IDn it is also IDn ∩ F: IDn ⊂ IDparent gives IDn ∩ F ⊆ inh, and
// inh ⊆ F gives inh ⊆ IDn ∩ F. The subset test then decides the node
// without the intersection, the check of last or the interner; it counts
// as the intersection it replaces.
func (g *SSG) maintain(n *ssgNode, f vr.Frame, inh *ssgNode) *ssgNode {
	g.metrics.Intersections++
	if inh != nil && inh.sig&^n.sig == 0 && inh.state.Objects.SubsetOf(n.state.Objects) {
		g.inherited++
		if inh == n {
			g.foldFrame(n, f)
		} else {
			g.foldInto(inh, n, f)
			n.last = inh
		}
		return inh
	}
	inter := n.state.Objects.IntersectInto(f.Objects, &g.buf)
	if inter.IsEmpty() {
		return nil
	}
	if inter.Len() == n.state.Objects.Len() {
		// Step 3 of the Graph Maintenance Procedure: inter ⊆ IDn, so equal
		// sizes mean the node itself co-occurs in the arriving frame.
		g.foldFrame(n, f)
		return n
	}
	if t := n.last; t != nil && !t.dead && t.state.Objects.Equal(inter) {
		g.foldInto(t, n, f)
		return t
	}
	n.last = g.target(n, inter, f)
	return n.last
}

// target finds or creates the node for inter = IDn ∩ F, a proper subset
// of IDn, and folds the frame into it (Graph Maintenance Procedure step
// 4). It returns nil when the §5.3 strategy terminates the state. inter
// may be scratch-backed; it is interned (copied) before being retained.
func (g *SSG) target(n *ssgNode, inter objset.Set, f vr.Frame) *ssgNode {
	if h, ok := g.intern.Lookup(inter); ok {
		t := g.nodes[h]
		g.foldInto(t, n, f)
		return t
	}
	if g.cfg.Terminate != nil && g.cfg.Terminate(inter) {
		g.metrics.StatesTerminated++
		return nil
	}
	t := g.newNode(inter, f.FID)
	t.state.frames.reserve(n.state.frames.len()+1, g.cfg.Window)
	g.foldInto(t, n, f)
	g.attachChild(n, t)
	return t
}

// foldInto folds the arriving frame into t, the existing state for
// IDparent ∩ F (step 4.a). A target created earlier in this same
// traversal has only seen its first parent, so it absorbs this parent's
// frames too; an older target is already exact (every frame containing
// it was folded when it arrived).
func (g *SSG) foldInto(t, parent *ssgNode, f vr.Frame) {
	if t.createdAt == f.FID {
		g.foldMissing(t, parent)
	}
	g.foldFrame(t, f)
}

// foldFrame folds the arriving frame into n and lists n among this
// frame's folded nodes, once however many parents lead to it; key-frame
// marks are decided by the rest-closure rule in State.fold, and a marked
// arriving frame is the node's newest key frame.
func (g *SSG) foldFrame(n *ssgNode, f vr.Frame) {
	if n.foldedAt == f.FID+1 {
		return
	}
	n.foldedAt = f.FID + 1
	// A node reached as another's target may hold frames that expired
	// since a frame last reached it; dropping them first lets the append
	// reuse their room instead of growing the list past the window.
	n.state.frames.expireBefore(f.FID - vr.FrameID(g.cfg.Window) + 1)
	if n.state.fold(f.FID, f.Objects) {
		n.lastMark = f.FID
	}
	g.folded = append(g.folded, n)
}

// foldMissing folds every frame of parent that target lacks. A frame
// containing the parent's objects contains the target's (a subset), so
// the target's frame set stays exact (= all window frames containing it).
func (g *SSG) foldMissing(target, parent *ssgNode) {
	te := target.state.frames.live()
	i := 0
	for _, e := range parent.state.frames.live() {
		fid := e.fid()
		for i < len(te) && te[i].fid() < fid {
			i++
		}
		if i < len(te) && te[i].fid() == fid {
			continue
		}
		if of, ok := g.window.at(fid); ok {
			if target.state.fold(fid, of) {
				target.lastMark = max(target.lastMark, fid)
			}
			te = target.state.frames.live() // insertion may move the entries
		}
	}
}

// attachChild adds edge (parent, child) and restores Property 2 one level
// deep (§4.3.4): an existing child contained in the new one is re-homed
// under it; if the new child is contained in an existing one it belongs
// under that child instead (that child's own visit generates it there).
func (g *SSG) attachChild(parent, child *ssgNode) {
	for i := 0; i < len(parent.children); i++ {
		sib := parent.children[i]
		if sib == child {
			return
		}
		if sib.state.Objects.ProperSubsetOf(child.state.Objects) {
			// Move sib under child: (parent, sib) → (child, sib). The
			// recursive attach keeps Property 2 among child's children.
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			i--
			detachParent(sib, parent)
			g.attachChild(child, sib)
		} else if child.state.Objects.ProperSubsetOf(sib.state.Objects) {
			g.attachChild(sib, child)
			return
		}
	}
	g.addEdge(parent, child)
}

func (g *SSG) addEdge(parent, child *ssgNode) {
	for _, c := range parent.children {
		if c == child {
			return
		}
	}
	parent.children = g.edges.add(parent.children, child, parent.decoded)
	child.parents = g.edges.add(child.parents, parent, child.decoded)
}

func detachParent(child, parent *ssgNode) {
	for i, p := range child.parents {
		if p == parent {
			child.parents = append(child.parents[:i], child.parents[i+1:]...)
			return
		}
	}
}

// ensurePrincipal creates or refreshes the node for the arriving frame's
// own object set: the new principal state (Definition 5).
func (g *SSG) ensurePrincipal(f vr.Frame) *ssgNode {
	var ns *ssgNode
	if h, ok := g.intern.Lookup(f.Objects); ok {
		ns = g.nodes[h]
	} else {
		if g.cfg.Terminate != nil && g.cfg.Terminate(f.Objects) {
			g.metrics.StatesTerminated++
			return nil
		}
		// No window frame contains F, or the traversal would have
		// generated it from their closure: this frame is its whole frame
		// set, and createdAt 0 says there is nothing to absorb.
		ns = g.newNode(f.Objects, 0)
	}
	// The creating frame is always a key frame of its principal state:
	// its object set equals the state's, so fold marks it.
	g.foldFrame(ns, f)
	g.ensureRoot(ns)
	return ns
}

// connectPrincipal implements CNPS (Algorithm 2). The candidates are the
// nodes this frame folded — every live state ⊆ IDns, which contains the
// states IDroot ∩ IDns of Theorem 2. They are sorted by object-set size
// descending, and ns is connected to each one not contained in a
// previously selected one.
func (g *SSG) connectPrincipal(ns *ssgNode) {
	cands := g.bySize(ns)
	// The selection is a subsequence of the candidates read so far, so it
	// is collected in place.
	selected := cands[:0]
next:
	for _, c := range cands {
		// Property 2 for ns's children: skip a candidate contained in an
		// already selected one (reachability via edges implies subset, so
		// this over-approximates the paper's reachable-set test safely:
		// every skipped candidate keeps its generating parent and stays
		// reachable for traversal).
		for _, s := range selected {
			if c.state.Objects.ProperSubsetOf(s.state.Objects) {
				continue next
			}
		}
		// attachChild (not addEdge): a re-created principal state may
		// already carry children, and Property 2 must hold against them
		// too.
		g.attachChild(ns, c)
		selected = append(selected, c)
	}
	g.cands = cands[:0]
}

// bySize returns the nodes this frame folded other than ns, largest
// object set first and in folded order among equal sizes, in reused
// scratch. Every one is a proper subset of IDns, so a stable counting
// sort on |IDns| − size orders them in one pass over a |IDns|-sized table.
func (g *SSG) bySize(ns *ssgNode) []*ssgNode {
	top := ns.state.Objects.Len()
	// start[k+1] first counts the candidates of key k; summed, start[k]
	// is the first position of key k.
	start := slices.Grow(g.sizeStart[:0], top+1)[:top+1]
	clear(start)
	n := 0
	for _, c := range g.folded {
		if c != ns {
			start[top-c.state.Objects.Len()+1]++
			n++
		}
	}
	for k := 1; k <= top; k++ {
		start[k] += start[k-1]
	}
	cands := slices.Grow(g.cands[:0], n)[:n]
	for _, c := range g.folded {
		if c != ns {
			k := top - c.state.Objects.Len()
			cands[start[k]] = c
			start[k]++
		}
	}
	g.sizeStart = start
	return cands
}

// removeNode detaches n from the graph, releasing its interned handle
// and recycling its state storage. Children that lose their last parent
// are promoted to traversal roots so their subtrees stay reachable.
func (g *SSG) removeNode(n *ssgNode) {
	n.dead = true
	g.metrics.StatesPruned++
	g.nodes[n.handle] = nil
	g.live--
	g.intern.Release(n.handle)
	for _, p := range n.parents {
		for i, c := range p.children {
			if c == n {
				p.children = append(p.children[:i], p.children[i+1:]...)
				break
			}
		}
	}
	parents, children := n.parents, n.children
	n.parents, n.children = nil, nil
	for _, c := range children {
		detachParent(c, n)
		if len(c.parents) == 0 {
			g.ensureRoot(c)
		}
	}
	// No loop holds either array now: removal runs from expire and file
	// only, never inside a traversal.
	if !n.decoded {
		g.edges.put(parents)
		g.edges.put(children)
	}
	// The node struct itself may still sit on rootOrder, results, the
	// folded lists or in another node's last until they are next walked
	// (all guarded by dead), but the state is unreachable from any live
	// path and can be recycled. Dropping last keeps a dead node from
	// pinning a chain of older dead ones.
	g.pool.put(n.state)
	n.state = nil
	n.last = nil
}

// edgeLists recycles the nodes' edge arrays. A node's children and
// parents die with it and nothing outside the graph holds them, so a
// dead node's arrays, and an array outgrown by addEdge, are cleared
// and kept for the next node's edges instead of left to the collector.
//
// An array is kept by its capacity class, 2^k for k < edgeClasses, and
// growth moves a list to the next class, so any array of the right
// class will do. Each class keeps at most edgeClassSlots>>k arrays in
// a list whose capacity is fixed when it is made; the surplus, and any
// array above the largest class, goes to the collector, so what the
// lists hold is bounded by the classes, not by the churn. Arrays are
// cleared when kept, so a free array pins no dead node. A list carved
// from a decode arena (ssgNode.decoded) is never kept, and one whose
// capacity is no class grows into one.
type edgeLists struct {
	free [edgeClasses][][]*ssgNode
}

const (
	edgeClasses    = 7   // capacities 1 to 64
	edgeClassSlots = 512 // node pointers a class keeps, over all its arrays
)

// add appends n to list, moving the list into a free array of the next
// class when it is full. The outgrown array is kept unless fixed says
// it is not the caller's to give away.
func (e *edgeLists) add(list []*ssgNode, n *ssgNode, fixed bool) []*ssgNode {
	if len(list) < cap(list) {
		return append(list, n)
	}
	grown := append(e.get(bits.Len(uint(len(list)))), list...)
	if !fixed {
		e.put(list)
	}
	return append(grown, n)
}

// get returns an empty array of capacity 2^k, cleared.
func (e *edgeLists) get(k int) []*ssgNode {
	if k < edgeClasses {
		if l := e.free[k]; len(l) > 0 {
			a := l[len(l)-1]
			l[len(l)-1] = nil
			e.free[k] = l[:len(l)-1]
			return a
		}
	}
	return make([]*ssgNode, 0, 1<<k)
}

// put clears a and keeps it for reuse if its capacity is a class and
// the class has room. The caller must hold the only reference to a.
func (e *edgeLists) put(a []*ssgNode) {
	c := cap(a)
	k := bits.TrailingZeros(uint(c))
	if c == 0 || c != 1<<k || k >= edgeClasses {
		return
	}
	l := e.free[k]
	if l == nil {
		l = make([][]*ssgNode, 0, edgeClassSlots>>k)
	}
	if len(l) == cap(l) {
		return
	}
	clear(a[:c])
	e.free[k] = append(l, a[:0])
}

func (g *SSG) ensureRoot(n *ssgNode) {
	if n.onRootList || len(n.parents) > 0 {
		return
	}
	n.onRootList = true
	g.rootOrder = append(g.rootOrder, n)
}

// liveRoots compacts rootOrder, dropping dead or re-parented entries, and
// returns the remaining traversal entry points in order.
func (g *SSG) liveRoots() []*ssgNode {
	out := g.rootOrder[:0]
	for _, n := range g.rootOrder {
		if n.dead || len(n.parents) > 0 {
			n.onRootList = false
			continue
		}
		out = append(out, n)
	}
	g.rootOrder = out
	return out
}

// collectResults implements the result-set maintenance of §4.3.7:
// SR_{i'} = SR'_i ∪ SR_{G'} — the still-satisfied previous results plus
// the satisfied states this frame was folded into (a frame set only
// grows by a fold). All buffers are generator-owned and reused across
// frames.
func (g *SSG) collectResults(f vr.Frame, minFID vr.FrameID) []*State {
	g.resultsNext = g.resultsNext[:0]
	for _, n := range g.results {
		if n.foldedAt != f.FID+1 { // else on the folded list, below
			g.considerResult(n, minFID)
		}
	}
	for _, n := range g.folded {
		g.considerResult(n, minFID)
	}
	g.results, g.resultsNext = g.resultsNext, g.results

	states := g.emitStates[:0]
	for _, n := range g.results {
		states = append(states, n.state)
	}
	g.emitStates = states
	return g.em.emit(states, g.cfg.Duration, true)
}

// considerResult expires one candidate node's old frames and appends it
// to resultsNext when it belongs in this frame's result set. A candidate
// removed this frame is skipped; every other one has a key frame in the
// window.
func (g *SSG) considerResult(n *ssgNode, minFID vr.FrameID) {
	if n.dead {
		return
	}
	n.state.frames.expireBefore(minFID)
	if n.state.frames.len() >= g.cfg.Duration {
		g.resultsNext = append(g.resultsNext, n)
	}
}
