package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// lookupNode resolves a node by object set through the intern table, the
// way the generator itself does.
func lookupNode(g *SSG, s objset.Set) *ssgNode {
	if h, ok := g.intern.Lookup(s); ok {
		return g.node(h)
	}
	return nil
}

// checkGraphInvariants walks the whole graph and asserts the structural
// properties the SSG is defined by, and that every node carries its
// object set's signature, which the traversal's tests trust.
func checkGraphInvariants(t *testing.T, g *SSG) {
	t.Helper()
	for h, n := range g.nodes.All() {
		if n == nil {
			continue
		}
		if n.dead {
			t.Fatalf("dead node %v still in node table", n.state.Objects)
		}
		if n.handle != objset.Handle(h) {
			t.Fatalf("node at handle %d carries handle %d", h, n.handle)
		}
		if !g.intern.Of(n.handle).Equal(n.state.Objects) {
			t.Fatalf("node %v interned as %v", n.state.Objects, g.intern.Of(n.handle))
		}
		if n.sig != n.state.Objects.Sig() {
			t.Fatalf("node %v carries signature %#x, want %#x", n.state.Objects, n.sig, n.state.Objects.Sig())
		}
		// Property 1: every edge goes to a strict subset.
		for _, c := range n.children {
			if !c.state.Objects.ProperSubsetOf(n.state.Objects) {
				t.Fatalf("edge %v → %v violates Property 1", n.state.Objects, c.state.Objects)
			}
			// Parent back-references are consistent.
			found := false
			for _, p := range c.parents {
				if p == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("child %v missing parent back-reference to %v",
					c.state.Objects, n.state.Objects)
			}
		}
		// Property 2: children of one node do not contain one another.
		for i := 0; i < len(n.children); i++ {
			for j := i + 1; j < len(n.children); j++ {
				a, b := n.children[i].state.Objects, n.children[j].state.Objects
				if a.ProperSubsetOf(b) || b.ProperSubsetOf(a) {
					t.Fatalf("children %v and %v of %v violate Property 2", a, b, n.state.Objects)
				}
			}
		}
	}

	// Edge storage: no two live edge lists, and no live list and a free
	// array, share a backing array, and every free array is cleared to
	// its capacity, so recycling neither aliases a list nor pins a node.
	type holder struct {
		n    *ssgNode // nil for a free array
		list string
	}
	owner := make(map[**ssgNode]holder)
	claim := func(a []*ssgNode, h holder) {
		if cap(a) == 0 {
			return
		}
		if prev, ok := owner[&a[:1][0]]; ok {
			t.Fatalf("%s list of %p shares its backing array with the %s list of %p", h.list, h.n, prev.list, prev.n)
		}
		owner[&a[:1][0]] = h
	}
	for _, n := range g.nodes.All() {
		if n != nil {
			claim(n.children, holder{n, "children"})
			claim(n.parents, holder{n, "parents"})
		}
	}
	for k, l := range g.edges.free {
		for i, a := range l {
			if len(a) != 0 || cap(a) != 1<<k {
				t.Fatalf("free array %d of class %d has len %d, cap %d", i, k, len(a), cap(a))
			}
			for j, p := range a[:cap(a)] {
				if p != nil {
					t.Fatalf("free array %d of class %d holds a node at %d", i, k, j)
				}
			}
			claim(a, holder{nil, "free"})
		}
	}

	// Reachability: every live node must be reachable from a parentless
	// node via parent chains (the traversal entry points).
	for _, n := range g.nodes.All() {
		if n == nil {
			continue
		}
		cur := n
		for steps := 0; len(cur.parents) > 0; steps++ {
			if steps > g.nodes.Len() {
				t.Fatalf("parent chain from %v does not terminate", n.state.Objects)
			}
			cur = cur.parents[0]
		}
		if !cur.onRootList {
			t.Fatalf("node %v reaches parentless %v which is not on the root list",
				n.state.Objects, cur.state.Objects)
		}
	}
}

func TestSSGGraphInvariantsOnPaperExample(t *testing.T) {
	g := NewSSG(Config{Window: 4, Duration: 3})
	for _, f := range paperFeed() {
		g.Process(f)
		checkGraphInvariants(t, g)
	}
}

func TestSSGGraphInvariantsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		w := 3 + r.Intn(6)
		g := NewSSG(Config{Window: w, Duration: 1})
		for _, f := range randomFeed(r, 40, 5+r.Intn(4), 5) {
			g.Process(f)
			checkGraphInvariants(t, g)
		}
	}
}

// TestSSGFigure3Scenario reproduces the running example of §4.3: two
// principal states {ABD} and {ABCF} with shared child {AB}; a new frame
// {ABDF} must yield the edge structure of Figure 3d — {ABF} and {ABD}
// become the parents of {AB}, and the new principal state connects to
// both without a redundant direct edge to {AB}.
func TestSSGFigure3Scenario(t *testing.T) {
	// A=1 B=2 C=3 D=4 F=5. Build principal states via frames.
	g := NewSSG(Config{Window: 10, Duration: 1})
	frames := []objset.Set{
		objset.New(1, 2, 3, 5), // {ABCF}
		objset.New(1, 2, 4),    // {ABD} → generates {AB}
		objset.New(1, 2, 4, 5), // {ABDF} → generates {ABF}, re-wires {AB}
	}
	for i, s := range frames {
		g.Process(vr.Frame{FID: vr.FrameID(i), Objects: s})
	}
	checkGraphInvariants(t, g)

	ab := lookupNode(g, objset.New(1, 2))
	if ab == nil {
		t.Fatal("{AB} not materialized")
	}
	abf := lookupNode(g, objset.New(1, 2, 5))
	if abf == nil {
		t.Fatal("{ABF} not materialized")
	}
	// Figure 3d: {AB}'s parents are {ABF} and {ABD} — not {ABCF}.
	abcf := lookupNode(g, objset.New(1, 2, 3, 5))
	for _, p := range ab.parents {
		if p == abcf {
			t.Errorf("{AB} still a direct child of {ABCF}; edge should have moved to {ABF}")
		}
	}
	wantParents := map[string]bool{
		objset.New(1, 2, 5).Key(): false, // {ABF}
		objset.New(1, 2, 4).Key(): false, // {ABD}
	}
	for _, p := range ab.parents {
		k := p.state.Objects.Key()
		if _, ok := wantParents[k]; ok {
			wantParents[k] = true
		}
	}
	for k, seen := range wantParents {
		if !seen {
			t.Errorf("{AB} missing expected parent %v", objsetFromKey(k))
		}
	}
}

func objsetFromKey(key string) objset.Set {
	ids := make([]objset.ID, 0, len(key)/4)
	for i := 0; i+3 < len(key); i += 4 {
		ids = append(ids, objset.ID(key[i])|objset.ID(key[i+1])<<8|
			objset.ID(key[i+2])<<16|objset.ID(key[i+3])<<24)
	}
	return objset.New(ids...)
}

// TestSSGSubtreePruningSavesWork verifies the headline mechanism: on a
// feed of two disjoint object communities, SSG visits far fewer states
// per frame than MFS processes, because each arriving frame skips the
// other community's subtrees.
func TestSSGSubtreePruningSavesWork(t *testing.T) {
	// Community A: objects 1-8; community B: objects 101-108. Frames
	// alternate between communities.
	r := rand.New(rand.NewSource(5))
	var feed []vr.Frame
	for i := 0; i < 200; i++ {
		base := objset.ID(1)
		if i%2 == 1 {
			base = 101
		}
		n := 3 + r.Intn(4)
		ids := make([]objset.ID, 0, n)
		for j := 0; j < n; j++ {
			ids = append(ids, base+objset.ID(r.Intn(8)))
		}
		feed = append(feed, vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)})
	}
	cfg := Config{Window: 20, Duration: 5}
	ssg := NewSSG(cfg)
	mfs := NewMFS(cfg)
	for _, f := range feed {
		ssg.Process(f)
		mfs.Process(f)
	}
	sv, mv := ssg.Metrics().StatesVisited, mfs.Metrics().StatesVisited
	if sv >= mv {
		t.Errorf("SSG visited %d states, MFS %d; expected SSG to visit fewer on disjoint communities", sv, mv)
	}
}

// TestSSGInheritsParentTarget walks the smallest graph in which step 2
// decides a node by its parent's target. R = {1 2 3 4} is the root and
// C = {1 2 3} its child; frame 3 brings back object 2, so the traversal
// visits R, whose intersection {1 2} is a new node T, and then C, whose
// intersection is T again: C must take T from R without intersecting,
// and T must hold every frame of C it lacked (it was created this frame).
// T sits under C (it is a subset of C), so its own visit inherits T from
// C: two nodes decided by inheritance.
// A random feed then checks that inheritance keeps the results of the
// generators that do not inherit.
func TestSSGInheritsParentTarget(t *testing.T) {
	g := NewSSG(Config{Window: 10, Duration: 1})
	for fid, ids := range [][]objset.ID{{1, 2, 3, 4}, {1, 2, 3, 5}, {1}, {1, 2}} {
		g.Process(vr.Frame{FID: vr.FrameID(fid), Objects: objset.New(ids...)})
	}
	checkGraphInvariants(t, g)
	c, tn := lookupNode(g, objset.New(1, 2, 3)), lookupNode(g, objset.New(1, 2))
	if c == nil || tn == nil {
		t.Fatal("missing C or T")
	}
	if g.inherited != 2 || c.last != tn {
		t.Fatalf("inherited %d, C.last is T: %v; want 2 and true", g.inherited, c.last == tn)
	}
	if got := tn.state.Frames(); !slices.Equal(got, []vr.FrameID{0, 1, 3}) {
		t.Errorf("T frames %v, want [0 1 3]", got)
	}

	r := rand.New(rand.NewSource(44))
	var feed []vr.Frame
	var ids []objset.ID
	for fid := 0; fid < 150; fid++ {
		// A drifting crowd: each frame keeps most of the previous one,
		// so arrivals are few and subtrees deep, which is where a
		// parent's target is inherited.
		keep := []objset.ID{}
		for _, id := range ids {
			if r.Intn(5) > 0 {
				keep = append(keep, id)
			}
		}
		for i := r.Intn(3); i >= 0; i-- {
			keep = append(keep, objset.ID(r.Intn(16)))
		}
		ids = keep
		feed = append(feed, vr.Frame{FID: vr.FrameID(fid), Objects: objset.New(ids...)})
	}
	cfg := Config{Window: 20, Duration: 3}
	diffAgainstOracle(t, cfg, feed)
	ssg := NewSSG(cfg)
	for _, f := range feed {
		ssg.Process(f)
	}
	checkGraphInvariants(t, ssg)
	if ssg.inherited == 0 {
		t.Error("no node inherited its parent's target on the random feed")
	}
}

// TestSSGLongRunMemoryBounded checks that expiry keeps the graph bounded
// over long runs, including the nodes no frame reaches any more: the
// expiry ring, not the traversal, must remove them.
func TestSSGLongRunMemoryBounded(t *testing.T) {
	// The population drifts: object ids come from a sliding range, so old
	// states can never be refreshed and whole subtrees are abandoned.
	t.Run("drifting population", func(t *testing.T) {
		g := NewSSG(Config{Window: 10, Duration: 2})
		r := rand.New(rand.NewSource(11))
		peak := 0
		for i := 0; i < 2000; i++ {
			base := objset.ID(i / 10)
			n := 2 + r.Intn(4)
			ids := make([]objset.ID, 0, n)
			for j := 0; j < n; j++ {
				ids = append(ids, base+objset.ID(r.Intn(6)))
			}
			g.Process(vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)})
			if g.StateCount() > peak {
				peak = g.StateCount()
			}
		}
		if peak > 2000 {
			t.Errorf("state count peaked at %d; memory not reclaimed", peak)
		}
		if g.StateCount() > 500 {
			t.Errorf("final state count %d; stale subtrees not removed", g.StateCount())
		}
	})

	// MFS drops a state on the frame its last key frame leaves the window,
	// and so does SSG's expiry ring. On coherent feeds of 20·w frames,
	// every live node must therefore have a key frame in the window at
	// every frame — the newest one, lastMark — and SSG must hold at most
	// 1.05× what MFS holds at the same frame, plus 8 states for
	// populations of a handful. The two need not hold the same states:
	// which frames of a state are marked depends on the order its parents
	// reach it.
	t.Run("coherent feed against MFS", func(t *testing.T) {
		r := rand.New(rand.NewSource(19))
		for trial := 0; trial < 8; trial++ {
			cfg := Config{Window: 10 + r.Intn(70)}
			cfg.Duration = r.Intn(cfg.Window + 1)
			ssg, mfs := NewSSG(cfg), NewMFS(cfg)
			for _, f := range flickerFeed(r, 20*cfg.Window, 8+r.Intn(6)) {
				ssg.Process(f)
				mfs.Process(f)
				if got, held := ssg.StateCount(), mfs.StateCount(); float64(got) > 1.05*float64(held)+8 {
					t.Fatalf("trial %d (w=%d) frame %d: SSG holds %d states, MFS %d",
						trial, cfg.Window, f.FID, got, held)
				}
				minFID := f.FID - vr.FrameID(cfg.Window) + 1
				for _, n := range ssg.nodes.All() {
					if n == nil {
						continue
					}
					marked := n.state.MarkedFrames()
					if len(marked) == 0 || marked[len(marked)-1] < minFID || marked[len(marked)-1] != n.lastMark {
						t.Fatalf("trial %d (w=%d) frame %d: %v (lastMark %d) has no key frame in the window from %d",
							trial, cfg.Window, f.FID, n.state, n.lastMark, minFID)
					}
				}
			}
		}
	})
}

// TestSSGEmptyFrameRuns interleaves empty frames (nothing detected) with
// content and checks results match the oracle.
func TestSSGEmptyFrameRuns(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	cfg := Config{Window: 5, Duration: 2}
	var feed []vr.Frame
	for i := 0; i < 40; i++ {
		var s objset.Set
		if r.Intn(3) > 0 {
			ids := make([]objset.ID, 0, 3)
			for j := 0; j < 3; j++ {
				ids = append(ids, objset.ID(1+r.Intn(5)))
			}
			s = objset.New(ids...)
		}
		feed = append(feed, vr.Frame{FID: vr.FrameID(i), Objects: s})
	}
	diffAgainstOracle(t, cfg, feed)
}

func TestSSGStateCountAndName(t *testing.T) {
	g := NewSSG(Config{Window: 4, Duration: 1})
	if g.Name() != "SSG" {
		t.Errorf("Name = %q", g.Name())
	}
	g.Process(vr.Frame{FID: 0, Objects: objset.New(1, 2)})
	if g.StateCount() != 1 {
		t.Errorf("StateCount = %d", g.StateCount())
	}
}

// TestSSGNodeSize pins ssgNode at 112 bytes, a malloc size class: at 120
// every node would take 128, and churn-heavy feeds create and drop
// nodes every frame.
func TestSSGNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(ssgNode{}); n != 112 {
		t.Fatalf("ssgNode is %d bytes, want 112", n)
	}
}

// TestStateSize pins State at 176 bytes, a malloc size class: one more
// word moves every state into the 192-byte class, and states are created
// and recycled every frame. frameList.hasExtra is what keeps it there.
func TestStateSize(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n != 176 {
		t.Fatalf("State is %d bytes, want 176", n)
	}
}

// TestFrameRunSize pins a frame-list run at two words: a 64-bit first
// frame id, and a 32-bit length beside its mark in the second. Frame
// lists are a large part of a generator's heap, and a wider length or a
// mark of its own would pad the run to 24 bytes.
func TestFrameRunSize(t *testing.T) {
	if n := unsafe.Sizeof(frameRun{}); n != 16 {
		t.Fatalf("frameRun is %d bytes, want 16", n)
	}
}

// TestCNPSOrderMatchesStableSort checks the counting sort CNPS orders its
// candidates with against a stable comparison sort by size descending, on
// random folded lists with many tied sizes.
func TestCNPSOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := NewSSG(Config{Window: 4, Duration: 1})
	sized := func(n int) *ssgNode {
		ids := make([]objset.ID, n)
		for i := range ids {
			ids[i] = objset.ID(i)
		}
		return &ssgNode{state: &State{Objects: objset.New(ids...)}}
	}
	for trial := 0; trial < 500; trial++ {
		top := 1 + r.Intn(12)
		ns := sized(top)
		g.folded = g.folded[:0]
		var want []*ssgNode
		for i, n := 0, r.Intn(40); i < n; i++ {
			c := sized(1 + r.Intn(max(1, top-1)))
			if c.state.Objects.Len() >= top {
				continue // only proper subsets of IDns are folded beside it
			}
			g.folded = append(g.folded, c)
			want = append(want, c)
		}
		g.folded = slices.Insert(g.folded, r.Intn(len(g.folded)+1), ns)
		slices.SortStableFunc(want, func(a, b *ssgNode) int {
			return b.state.Objects.Len() - a.state.Objects.Len()
		})
		if got := g.bySize(ns); !slices.Equal(got, want) {
			t.Fatalf("trial %d: counting sort disagrees with the stable sort", trial)
		}
	}
}
