// Package query is the Query Evaluation module of the paper's
// architecture (Figure 2, §5): it evaluates CNF count queries against the
// result state sets produced by the MCOS Generation layer, and implements
// the §5.3 result-driven pruning strategy that feeds back into state
// maintenance for ≥-only query sets.
//
// Evaluation runs over a shared multi-query plan (see plan.go): the
// registered query set is compiled once, predicates and clauses are
// hash-consed across queries, each distinct predicate is evaluated once
// per state, and matches fan out to the owning queries through bitset
// masks — so per-frame cost tracks the number of distinct predicates
// and bodies, not the number of subscriptions. Add and Remove patch the
// plan incrementally instead of recompiling it.
package query

import (
	"fmt"
	"math/bits"
	"slices"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// Match is one query hit: in the current window, the MCOS Objects
// appears in the frames Frames (at least the query's duration many) and
// its per-class counts satisfy the query.
type Match struct {
	QueryID int
	Objects objset.Set
	// Frames lists the frames of joint presence, oldest first. Every
	// match of the same state in one evaluation holds the same list —
	// one backing array, materialized once — so it is read-only: sinks,
	// Process callers and anything they hand it to must copy before
	// changing it. The list is never reused by the evaluator, so holding
	// a match for as long as one likes is safe.
	Frames []vr.FrameID
}

// Evaluator evaluates a dynamic set of queries, all sharing one window
// size, against result state sets. Queries with different windows belong
// in different evaluators (the engine groups them, as §3 prescribes).
// An empty evaluator is valid — it matches nothing and adopts the
// window of the first query added — so dynamic paths (a session opened
// with no queries, Subscribe before any frame) never hit a special
// case. An Evaluator is not safe for concurrent use: evaluation reuses
// internal scratch buffers.
type Evaluator struct {
	reg     *vr.Registry
	queries []cnf.Query // registration order, for Queries()
	window  int         // 0 while empty
	p       *plan

	// Evaluation scratch, reused across EvaluateStates calls (one more
	// reason the evaluator is not safe for concurrent use). Neither
	// holds a pointer, so a finished pass keeps nothing alive.
	keys []uint64 // subscriber rank<<32 | index into hits
	hits []stateHit
}

// NewEvaluator builds an evaluator over queries — possibly none. All
// queries must be valid, share the same window size and have distinct
// ids.
func NewEvaluator(reg *vr.Registry, queries []cnf.Query) (*Evaluator, error) {
	e := &Evaluator{reg: reg, p: newPlan(reg)}
	for _, q := range queries {
		if err := e.Add(q); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Add registers one query, patching the shared plan incrementally:
// predicates and clauses the query shares with registered ones are
// reused, new ones are interned, and the query claims a subscriber
// slot in its body's fan-out mask. On a warm plan (shapes seen before)
// Add allocates nothing.
func (e *Evaluator) Add(q cnf.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if len(q.Clauses) == 0 {
		return fmt.Errorf("query: query %d has no clauses", q.ID)
	}
	if len(e.queries) > 0 && q.Window != e.window {
		return fmt.Errorf("query: query %d window %d differs from group window %d", q.ID, q.Window, e.window)
	}
	if e.p.has(q.ID) {
		return fmt.Errorf("query: duplicate query id %d", q.ID)
	}
	e.p.add(q)
	e.window = q.Window
	e.queries = append(e.queries, q)
	return nil
}

// Remove deregisters a query, releasing its subscriber slot and any
// predicate, clause or body handles no remaining query shares; it
// reports whether the query was present. Removing the last query
// leaves a valid empty evaluator.
func (e *Evaluator) Remove(id int) bool {
	if !e.p.remove(id) {
		return false
	}
	w := 0
	for _, q := range e.queries {
		if q.ID != id {
			e.queries[w] = q
			w++
		}
	}
	e.queries = e.queries[:w]
	if len(e.queries) == 0 {
		e.window = 0
	}
	return true
}

// Has reports whether a query with the given id is registered.
func (e *Evaluator) Has(id int) bool { return e.p.has(id) }

// Len returns the number of registered queries.
func (e *Evaluator) Len() int { return e.p.len() }

// Window returns the shared window size of the evaluator's queries, or
// zero for an empty evaluator (the typed zero value: no query, no
// window).
func (e *Evaluator) Window() int { return e.window }

// MinDuration returns the smallest duration among the queries — the
// push-down threshold for the MCOS generator (§3) — or zero for an
// empty evaluator.
func (e *Evaluator) MinDuration() int {
	if len(e.queries) == 0 {
		return 0
	}
	min := e.queries[0].Duration
	for _, q := range e.queries[1:] {
		if q.Duration < min {
			min = q.Duration
		}
	}
	return min
}

// Generation counts plan patches (Add/Remove); caches derived from the
// plan — the §5.3 termination memo — key on it.
func (e *Evaluator) Generation() uint64 { return e.p.gen }

// Classes returns the set of classes referenced by the queries, resolved
// through the registry; the engine uses it to drop unrequested classes
// before MCOS generation (§3). Labels that are not registered classes are
// skipped (they can never match and evaluate as count zero).
func (e *Evaluator) Classes() map[vr.Class]bool {
	keep := make(map[vr.Class]bool)
	for i := range e.p.labels {
		lx := &e.p.labels[i]
		if lx.live == 0 {
			continue
		}
		if c, ok := e.reg.Lookup(lx.label); ok {
			keep[c] = true
		}
	}
	return keep
}

// EvaluateStates runs the shared plan against a result state set and
// returns all matches, sorted by (query id, object set) for determinism
// (§5.2 step 2). It is EvaluateStatesFrom with frame ids reported in the
// generator's own numbering.
func (e *Evaluator) EvaluateStates(states []*core.State, classOf func(objset.ID) vr.Class) []Match {
	return e.EvaluateStatesFrom(states, classOf, 0)
}

// EvaluateStatesFrom evaluates a result state set whose generator
// numbers frames from zero while its caller numbers them from start (a
// window group added to a running engine): every reported frame id is
// the generator's plus start.
//
// states must be in objset.Compare order with distinct object sets, as
// core.Generator.Process returns them. Each state's per-class counts
// drive one pass over the distinct predicates; satisfied bodies fan out
// to their subscribers, each re-checking its own duration (the
// generator push-down used the group's minimum). The pass only records
// one word per match — the subscriber's rank by query id above the
// matched state's position among the pass's hits, which follows the
// states' object-set order — so sorting the words orders the matches,
// which are then written into one exactly sized slice. A (query, state)
// pair occurs at most once, so the order is total.
//
// The result is freshly allocated on every call and owned by the
// caller: one []Match plus one block of frame ids, in which every
// matched state's frame list is materialized once. All matches of a
// state share that list (and the state's immutable object set), so
// Match.Frames is read-only for everyone downstream.
func (e *Evaluator) EvaluateStatesFrom(states []*core.State, classOf func(objset.ID) vr.Class, start vr.FrameID) []Match {
	if len(e.queries) == 0 || len(states) == 0 {
		return nil
	}
	p := e.p
	p.refreshLabels()
	nclasses := e.reg.Len()
	rank := p.ranks()
	keys, hits := e.keys[:0], e.hits[:0]
	nframes := 0
	for si, s := range states {
		frameCount := s.FrameCount()
		first := len(keys)
		for _, bid := range p.satisfied(s.Aggregate(nclasses, classOf), s.Objects) {
			for wi, word := range p.bodies[bid].subs {
				for ; word != 0; word &= word - 1 {
					if slot := wi*64 + bits.TrailingZeros64(word); frameCount >= p.subs[slot].duration {
						keys = append(keys, uint64(rank[slot])<<32|uint64(len(hits)))
					}
				}
			}
		}
		if len(keys) > first {
			hits = append(hits, stateHit{state: si, frames: nframes})
			nframes += frameCount
		}
	}
	e.keys, e.hits = keys, hits
	if len(keys) == 0 {
		return nil
	}
	slices.Sort(keys)

	frames := make([]vr.FrameID, nframes)
	for _, h := range hits {
		s := states[h.state]
		s.FillFrames(frames[h.frames:h.frames+s.FrameCount()], start)
	}
	out := make([]Match, len(keys))
	for i, k := range keys {
		h := hits[uint32(k)]
		s := states[h.state]
		end := h.frames + s.FrameCount()
		out[i] = Match{QueryID: p.subs[p.byQID[k>>32]].qid, Objects: s.Objects, Frames: frames[h.frames:end:end]}
	}
	return out
}

// stateHit is one state with at least one match in the current pass:
// its index in the evaluated slice and where its frame list starts in
// the pass's shared block of frame ids.
type stateHit struct {
	state  int
	frames int
}

// GEOnly reports whether the §5.3 pruning strategy is applicable: every
// condition of every query uses ≥ (Proposition 1). The plan tracks the
// count of non-≥ predicates, so this is O(1).
func (e *Evaluator) GEOnly() bool { return e.p.nonGE == 0 }

// TerminatePredicate returns the state-termination predicate of §5.3, or
// nil when the query set contains non-≥ conditions. The predicate is
// given to core.Config.Terminate: a newly created state whose object set
// satisfies no query can be dropped immediately, because per-class counts
// of subsets are no larger and ≥ conditions are monotone in the counts.
//
// Decisions are memoized in a core.TerminateMemo keyed to the shared
// plan's generation: a Cancel that shrinks the query set (the only
// plan patch allowed under pruning) invalidates the cache, so the
// predicate always answers for the current plan. The returned predicate
// is not safe for concurrent use.
func (e *Evaluator) TerminatePredicate(classOf func(objset.ID) vr.Class) func(objset.Set) bool {
	if !e.GEOnly() {
		return nil
	}
	memo := core.NewTerminateMemo()
	var agg []int
	return func(objects objset.Set) bool {
		gen := e.p.gen
		if v, ok := memo.Lookup(gen, objects); ok {
			return v
		}
		nclasses := e.reg.Len()
		agg = agg[:0]
		for len(agg) < nclasses {
			agg = append(agg, 0)
		}
		objects.Range(func(id objset.ID) bool {
			if c := int(classOf(id)); c < nclasses {
				agg[c]++
			}
			return true
		})
		e.p.refreshLabels()
		v := len(e.p.satisfied(agg, objects)) == 0
		memo.Store(gen, objects, v)
		return v
	}
}

// Queries returns the evaluator's queries in registration order.
func (e *Evaluator) Queries() []cnf.Query { return e.queries }
