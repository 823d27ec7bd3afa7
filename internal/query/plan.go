package query

import (
	"slices"

	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// The shared multi-query evaluation plan. Instead of indexing one
// posting per (query, clause) condition the way cnf.EvalE does, the
// plan hash-conses the query set three levels deep — mirroring how
// objset.Interner hash-conses object sets into handles:
//
//	predicate := one distinct `label θ n` or `#id` condition
//	clause    := sorted set of predicate handles (a disjunction)
//	body      := sorted set of clause handles (a query's CNF)
//
// Every level is refcounted with a free list, so Subscribe/Cancel patch
// the plan incrementally — add or remove one subscriber, release
// orphaned handles — and, once the node and scratch capacities have
// warmed up, allocate nothing. Each distinct predicate is evaluated
// once per state per frame regardless of how many queries share it:
// firing a predicate stamps its clauses (each clause counted once per
// state, however many of its predicates fired) and bumps a counter on
// each clause's bodies; a body whose counter reaches its clause count
// is satisfied, and its matches fan out to the subscribed queries
// through a bitset mask over dense subscriber slots. Per-frame cost
// therefore tracks the number of distinct predicates, clauses and
// bodies — not the number of subscriptions.
type plan struct {
	reg *vr.Registry

	preds    []predNode
	predFree []uint32
	predOf   map[cnf.Condition]uint32

	clauses    []clauseNode
	clauseFree []uint32
	clauseOf   map[uint64][]uint32 // content hash → chain of clause ids

	bodies   []bodyNode
	bodyFree []uint32
	bodyOf   map[uint64][]uint32 // content hash → chain of body ids

	labels  []labelIndex   // count-predicate scan indexes, one per label ever seen
	labelOf map[string]int // label → index into labels
	ids     map[uint32]uint32

	subs     []subscriber
	slotFree []int
	slotOf   map[int]int // query id → slot

	// byQID lists the live slots by ascending query id and rank inverts
	// it (slot → position in byQID) as of generation rankGen; read it
	// through ranks(). Evaluation orders its matches by sorting ranks —
	// dense integers that pack into one word with the matched state —
	// instead of comparing query ids.
	byQID   []int32
	rank    []int32
	rankGen uint64

	// Evaluation scratch, epoch-stamped so no per-state clearing; its
	// reuse is one reason the evaluator is not safe for concurrent use.
	epoch       uint64
	clauseStamp []uint64
	bodyStamp   []uint64
	bodyCount   []uint32
	matchedBuf  []uint32

	// Patch scratch, reused across add calls.
	condBuf   []cnf.Condition
	predBuf   []uint32
	clauseBuf []uint32

	// gen counts plan mutations; consumers holding derived state (the
	// §5.3 termination memo) key their caches on it.
	gen uint64
	// nonGE counts live predicates that are neither ≥ nor identity
	// constraints, so GEOnly is O(1) under patching.
	nonGE int
}

type predNode struct {
	cond    cnf.Condition
	refs    int32    // clauses containing this predicate
	clauses []uint32 // their ids
}

type clauseNode struct {
	preds  []uint32 // sorted distinct predicate ids; content identity
	hash   uint64
	refs   int32    // bodies containing this clause
	bodies []uint32 // their ids
}

type bodyNode struct {
	clauses []uint32 // sorted distinct clause ids; content identity
	hash    uint64
	refs    int32    // subscribers sharing this body
	subs    []uint64 // subscriber-slot bitmask
}

type subscriber struct {
	qid      int
	duration int // re-checked at emission; the generator push-down uses the group minimum
	body     uint32
}

// scanEntry is one row of an ordered inequality index. Hash-consing
// guarantees at most one entry per (label, op, n), so the lists stay
// short no matter how many queries share a threshold.
type scanEntry struct {
	n    int
	pred uint32
}

// labelIndex is the per-label scan state: the ≥ list ascending, the ≤
// list descending, and = as a point lookup (§5.2). Indexes are kept
// (empty) when their last predicate is released, so re-adding a label
// allocates nothing. class/known are refreshed from the registry once
// per evaluation pass, matching the seed's dynamic label resolution.
type labelIndex struct {
	label string
	class vr.Class
	known bool
	live  int // live predicates over this label
	ge    []scanEntry
	le    []scanEntry
	eq    map[int]uint32
}

func newPlan(reg *vr.Registry) *plan {
	return &plan{
		reg:      reg,
		predOf:   make(map[cnf.Condition]uint32),
		clauseOf: make(map[uint64][]uint32),
		bodyOf:   make(map[uint64][]uint32),
		labelOf:  make(map[string]int),
		ids:      make(map[uint32]uint32),
		slotOf:   make(map[int]int),
	}
}

func (p *plan) has(qid int) bool {
	_, ok := p.slotOf[qid]
	return ok
}

func (p *plan) len() int { return len(p.slotOf) }

// add registers one already-validated query: its clauses are
// normalized, interned bottom-up, and the query gets a dense subscriber
// slot set in its body's fan-out mask.
func (p *plan) add(q cnf.Query) {
	p.clauseBuf = p.clauseBuf[:0]
	for _, d := range q.Clauses {
		p.condBuf = d.AppendNormalized(p.condBuf[:0])
		p.predBuf = p.predBuf[:0]
		for _, c := range p.condBuf {
			p.predBuf = append(p.predBuf, p.internPred(c))
		}
		slices.Sort(p.predBuf)
		p.clauseBuf = append(p.clauseBuf, p.internClause(p.predBuf))
	}
	slices.Sort(p.clauseBuf)
	p.clauseBuf = slices.Compact(p.clauseBuf) // repeated clauses AND to one
	bid := p.internBody(p.clauseBuf)
	p.bodies[bid].refs++

	slot := p.allocSlot()
	p.subs[slot] = subscriber{qid: q.ID, duration: q.Duration, body: bid}
	p.slotOf[q.ID] = slot
	p.setSub(bid, slot)
	p.byQID = slices.Insert(p.byQID, p.qidPos(q.ID), int32(slot))
	p.gen++
}

// qidPos returns the position in byQID of the first slot whose query id
// is not below qid — where qid is, or where it belongs. Searched by
// hand: a comparison closure over p would allocate.
func (p *plan) qidPos(qid int) int {
	lo, hi := 0, len(p.byQID)
	for lo < hi {
		if mid := (lo + hi) / 2; p.subs[p.byQID[mid]].qid < qid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ranks brings rank up to date with byQID; patches only edit the list,
// so that a burst of them pays for one pass.
func (p *plan) ranks() []int32 {
	if p.rankGen != p.gen {
		for i, slot := range p.byQID {
			p.rank[slot] = int32(i)
		}
		p.rankGen = p.gen
	}
	return p.rank
}

// remove deregisters a query, releasing its slot and any predicate,
// clause or body handles the removal orphans. It reports whether the
// query was present.
func (p *plan) remove(qid int) bool {
	slot, ok := p.slotOf[qid]
	if !ok {
		return false
	}
	delete(p.slotOf, qid)
	at := p.qidPos(qid)
	p.byQID = slices.Delete(p.byQID, at, at+1)
	sub := p.subs[slot]
	p.subs[slot] = subscriber{}
	p.slotFree = append(p.slotFree, slot)

	bid := sub.body
	b := &p.bodies[bid]
	b.subs[slot/64] &^= 1 << uint(slot%64)
	b.refs--
	if b.refs == 0 {
		p.releaseBody(bid)
	}
	p.gen++
	return true
}

func (p *plan) allocSlot() int {
	if n := len(p.slotFree); n > 0 {
		s := p.slotFree[n-1]
		p.slotFree = p.slotFree[:n-1]
		return s
	}
	p.subs = append(p.subs, subscriber{})
	p.rank = append(p.rank, 0)
	return len(p.subs) - 1
}

// setSub sets the slot's bit in the body's fan-out mask, growing the
// mask (never shrunk, so growth amortizes to zero) as slots appear.
func (p *plan) setSub(bid uint32, slot int) {
	b := &p.bodies[bid]
	for len(b.subs) <= slot/64 {
		b.subs = append(b.subs, 0)
	}
	b.subs[slot/64] |= 1 << uint(slot%64)
}

// internPred returns the handle of the predicate, creating its node and
// scan-index entry on first use. Reference counts are owned by clause
// creation: a predicate created here is always immediately claimed by a
// new clause (an existing clause implies all its predicates exist).
func (p *plan) internPred(c cnf.Condition) uint32 {
	if pid, ok := p.predOf[c]; ok {
		return pid
	}
	var pid uint32
	if n := len(p.predFree); n > 0 {
		pid = p.predFree[n-1]
		p.predFree = p.predFree[:n-1]
		p.preds[pid] = predNode{cond: c, clauses: p.preds[pid].clauses[:0]}
	} else {
		pid = uint32(len(p.preds))
		p.preds = append(p.preds, predNode{cond: c})
	}
	p.predOf[c] = pid
	if !c.Identity && c.Op != cnf.GE {
		p.nonGE++
	}
	p.indexPred(c, pid)
	return pid
}

// indexPred inserts the predicate into its label's scan index (or the
// identity table).
func (p *plan) indexPred(c cnf.Condition, pid uint32) {
	if c.Identity {
		p.ids[uint32(c.N)] = pid
		return
	}
	li, ok := p.labelOf[c.Label]
	if !ok {
		li = len(p.labels)
		p.labels = append(p.labels, labelIndex{label: c.Label, eq: make(map[int]uint32)})
		p.labelOf[c.Label] = li
	}
	lx := &p.labels[li]
	lx.live++
	switch c.Op {
	case cnf.GE:
		lx.ge = insertScan(lx.ge, scanEntry{n: c.N, pred: pid}, true)
	case cnf.LE:
		lx.le = insertScan(lx.le, scanEntry{n: c.N, pred: pid}, false)
	case cnf.EQ:
		lx.eq[c.N] = pid
	}
}

func (p *plan) releasePred(pid uint32) {
	c := p.preds[pid].cond
	delete(p.predOf, c)
	if !c.Identity && c.Op != cnf.GE {
		p.nonGE--
	}
	if c.Identity {
		delete(p.ids, uint32(c.N))
	} else {
		lx := &p.labels[p.labelOf[c.Label]]
		lx.live--
		switch c.Op {
		case cnf.GE:
			lx.ge = removeScan(lx.ge, pid)
		case cnf.LE:
			lx.le = removeScan(lx.le, pid)
		case cnf.EQ:
			delete(lx.eq, c.N)
		}
	}
	p.predFree = append(p.predFree, pid)
}

// insertScan keeps ascending order by threshold when asc, descending
// otherwise. Hash-consing makes thresholds unique per list.
func insertScan(list []scanEntry, en scanEntry, asc bool) []scanEntry {
	i, _ := slices.BinarySearchFunc(list, en, func(a, b scanEntry) int {
		if asc {
			return a.n - b.n
		}
		return b.n - a.n
	})
	list = append(list, scanEntry{})
	copy(list[i+1:], list[i:])
	list[i] = en
	return list
}

func removeScan(list []scanEntry, pid uint32) []scanEntry {
	for i, en := range list {
		if en.pred == pid {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// internClause returns the handle of the clause with exactly the given
// sorted predicate set, creating it (and claiming its predicates) on
// first use. Reference counts are owned by body creation.
func (p *plan) internClause(preds []uint32) uint32 {
	h := cnf.HashUint32s(preds)
	for _, cid := range p.clauseOf[h] {
		if slices.Equal(p.clauses[cid].preds, preds) {
			return cid
		}
	}
	var cid uint32
	if n := len(p.clauseFree); n > 0 {
		cid = p.clauseFree[n-1]
		p.clauseFree = p.clauseFree[:n-1]
		node := &p.clauses[cid]
		node.preds = append(node.preds[:0], preds...)
		node.hash = h
		node.bodies = node.bodies[:0]
	} else {
		cid = uint32(len(p.clauses))
		p.clauses = append(p.clauses, clauseNode{preds: slices.Clone(preds), hash: h})
	}
	p.clauseOf[h] = append(p.clauseOf[h], cid)
	for _, pid := range preds {
		p.preds[pid].refs++
		p.preds[pid].clauses = append(p.preds[pid].clauses, cid)
	}
	return cid
}

func (p *plan) releaseClause(cid uint32) {
	node := &p.clauses[cid]
	p.clauseOf[node.hash] = chainRemove(p.clauseOf[node.hash], cid)
	for _, pid := range node.preds {
		pd := &p.preds[pid]
		pd.clauses = chainRemove(pd.clauses, cid)
		pd.refs--
		if pd.refs == 0 {
			p.releasePred(pid)
		}
	}
	p.clauseFree = append(p.clauseFree, cid)
}

// internBody returns the handle of the body with exactly the given
// sorted clause set, creating it (and claiming its clauses) on first
// use. The caller owns the subscriber refcount.
func (p *plan) internBody(clauses []uint32) uint32 {
	h := cnf.HashUint32s(clauses)
	for _, bid := range p.bodyOf[h] {
		if slices.Equal(p.bodies[bid].clauses, clauses) {
			return bid
		}
	}
	var bid uint32
	if n := len(p.bodyFree); n > 0 {
		bid = p.bodyFree[n-1]
		p.bodyFree = p.bodyFree[:n-1]
		node := &p.bodies[bid]
		node.clauses = append(node.clauses[:0], clauses...)
		node.hash = h
		node.refs = 0
		clear(node.subs)
	} else {
		bid = uint32(len(p.bodies))
		p.bodies = append(p.bodies, bodyNode{clauses: slices.Clone(clauses), hash: h})
	}
	p.bodyOf[h] = append(p.bodyOf[h], bid)
	for _, cid := range clauses {
		p.clauses[cid].refs++
		p.clauses[cid].bodies = append(p.clauses[cid].bodies, bid)
	}
	return bid
}

func (p *plan) releaseBody(bid uint32) {
	node := &p.bodies[bid]
	p.bodyOf[node.hash] = chainRemove(p.bodyOf[node.hash], bid)
	for _, cid := range node.clauses {
		cl := &p.clauses[cid]
		cl.bodies = chainRemove(cl.bodies, bid)
		cl.refs--
		if cl.refs == 0 {
			p.releaseClause(cid)
		}
	}
	p.bodyFree = append(p.bodyFree, bid)
}

// chainRemove deletes one occurrence of v, preserving order (body and
// clause back-references are iterated during evaluation in slice order,
// and the hash chains are short) while keeping capacity for reuse.
func chainRemove(chain []uint32, v uint32) []uint32 {
	for i, x := range chain {
		if x == v {
			return append(chain[:i], chain[i+1:]...)
		}
	}
	return chain
}

// refreshLabels re-resolves each label against the registry — once per
// evaluation pass, so classes registered after a query (the registry
// grows as codecs see new class names) are picked up exactly like the
// per-call lookups of the per-query evaluator.
func (p *plan) refreshLabels() {
	for i := range p.labels {
		lx := &p.labels[i]
		lx.class, lx.known = p.reg.Lookup(lx.label)
	}
}

// satisfied evaluates every distinct predicate once against the
// per-class counts (and the object set, for identity constraints) and
// returns the satisfied body ids. The result aliases internal scratch,
// valid until the next satisfied call. agg is indexed by class;
// unknown labels count zero.
func (p *plan) satisfied(agg []int, objects objset.Set) []uint32 {
	p.growScratch()
	p.epoch++
	p.matchedBuf = p.matchedBuf[:0]
	for i := range p.labels {
		lx := &p.labels[i]
		v := 0
		if lx.known && int(lx.class) < len(agg) {
			v = agg[lx.class]
		}
		for _, en := range lx.ge { // ascending: stop at first n > v
			if en.n > v {
				break
			}
			p.firePred(en.pred)
		}
		for _, en := range lx.le { // descending: stop at first n < v
			if en.n < v {
				break
			}
			p.firePred(en.pred)
		}
		if pid, ok := lx.eq[v]; ok {
			p.firePred(pid)
		}
	}
	for id, pid := range p.ids {
		if objects.Contains(id) {
			p.firePred(pid)
		}
	}
	return p.matchedBuf
}

// firePred marks the predicate satisfied for the current epoch: each of
// its clauses is counted once toward its bodies, and a body whose every
// clause has fired joins the matched buffer.
func (p *plan) firePred(pid uint32) {
	for _, cid := range p.preds[pid].clauses {
		if p.clauseStamp[cid] == p.epoch {
			continue
		}
		p.clauseStamp[cid] = p.epoch
		for _, bid := range p.clauses[cid].bodies {
			if p.bodyStamp[bid] != p.epoch {
				p.bodyStamp[bid] = p.epoch
				p.bodyCount[bid] = 0
			}
			p.bodyCount[bid]++
			if int(p.bodyCount[bid]) == len(p.bodies[bid].clauses) {
				p.matchedBuf = append(p.matchedBuf, bid)
			}
		}
	}
}

func (p *plan) growScratch() {
	for len(p.clauseStamp) < len(p.clauses) {
		p.clauseStamp = append(p.clauseStamp, 0)
	}
	for len(p.bodyStamp) < len(p.bodies) {
		p.bodyStamp = append(p.bodyStamp, 0)
		p.bodyCount = append(p.bodyCount, 0)
	}
}
