package query

import (
	"fmt"
	"reflect"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// TestEmptyEvaluatorZeroValues pins the typed zero-value path: an empty
// evaluator is valid, reports zero window and duration instead of
// panicking, matches nothing, and adopts the window of the first query
// added (the open-session-then-Subscribe-first flow).
func TestEmptyEvaluatorZeroValues(t *testing.T) {
	reg := vr.StandardRegistry()
	ev, err := NewEvaluator(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Window() != 0 || ev.MinDuration() != 0 || ev.Len() != 0 {
		t.Fatalf("empty evaluator: Window=%d MinDuration=%d Len=%d, want all zero",
			ev.Window(), ev.MinDuration(), ev.Len())
	}
	states := buildStates(t, []objset.Set{objset.New(2, 4), objset.New(2, 4)}, 4, 1)
	if m := ev.EvaluateStates(states, classOf); m != nil {
		t.Fatalf("empty evaluator matched: %+v", m)
	}
	if keep := ev.Classes(); len(keep) != 0 {
		t.Fatalf("empty evaluator Classes = %v", keep)
	}

	if err := ev.Add(mkQuery(t, 7, "car >= 1", 4, 2)); err != nil {
		t.Fatal(err)
	}
	if ev.Window() != 4 || ev.MinDuration() != 2 || ev.Len() != 1 {
		t.Fatalf("after first Add: Window=%d MinDuration=%d Len=%d",
			ev.Window(), ev.MinDuration(), ev.Len())
	}
	if err := ev.Add(mkQuery(t, 8, "car >= 1", 9, 2)); err == nil {
		t.Fatal("mismatched window accepted after first Add")
	}
	if m := ev.EvaluateStates(states, classOf); len(m) == 0 || m[0].QueryID != 7 {
		t.Fatalf("added query did not match: %+v", m)
	}

	if !ev.Remove(7) {
		t.Fatal("Remove(7) = false")
	}
	if ev.Window() != 0 || ev.MinDuration() != 0 || ev.Len() != 0 {
		t.Fatalf("after removing last query: Window=%d MinDuration=%d Len=%d",
			ev.Window(), ev.MinDuration(), ev.Len())
	}
	if ev.Remove(7) {
		t.Fatal("Remove(7) twice = true")
	}
}

// liveNodes reports the plan's live (non-freed) predicate, clause and
// body counts.
func liveNodes(p *plan) (preds, clauses, bodies int) {
	return len(p.preds) - len(p.predFree),
		len(p.clauses) - len(p.clauseFree),
		len(p.bodies) - len(p.bodyFree)
}

// TestPlanSharingAndRelease checks hash-consing across queries: shared
// predicates, clauses and whole bodies collapse to single nodes, and
// removal releases exactly the handles no remaining query holds.
func TestPlanSharingAndRelease(t *testing.T) {
	reg := vr.StandardRegistry()
	ev, err := NewEvaluator(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ev.p

	// Two queries with identical bodies (clause order and duplicate
	// conditions must not matter), one overlapping, one disjoint.
	same1 := mkQuery(t, 1, "(car >= 2 OR person >= 1) AND bus >= 1", 10, 3)
	same2 := mkQuery(t, 2, "bus >= 1 AND (person >= 1 OR car >= 2 OR person >= 1)", 10, 5)
	overlap := mkQuery(t, 3, "car >= 2 AND bus >= 1", 10, 4)
	disjoint := mkQuery(t, 4, "truck = 2", 10, 4)
	for _, q := range []cnf.Query{same1, same2, overlap, disjoint} {
		if err := ev.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct predicates: car>=2, person>=1, bus>=1, truck=2.
	// Distinct clauses: {car∨person}, {bus}, {car}, {truck}.
	// Distinct bodies: same1/same2 share one, overlap, disjoint.
	preds, clauses, bodies := liveNodes(p)
	if preds != 4 || clauses != 4 || bodies != 3 {
		t.Fatalf("live nodes = %d preds, %d clauses, %d bodies; want 4, 4, 3", preds, clauses, bodies)
	}
	if p.bodies[p.subs[p.slotOf[1]].body].refs != 2 {
		t.Fatalf("shared body refs = %d, want 2", p.bodies[p.subs[p.slotOf[1]].body].refs)
	}
	if p.subs[p.slotOf[1]].body != p.subs[p.slotOf[2]].body {
		t.Fatal("identical queries did not share a body")
	}

	// Removing one of the twins keeps every node live.
	ev.Remove(2)
	if preds, clauses, bodies = liveNodes(p); preds != 4 || clauses != 4 || bodies != 3 {
		t.Fatalf("after Remove(2): %d/%d/%d live, want 4/4/3", preds, clauses, bodies)
	}
	// Removing the other twin releases its body and the {car∨person}
	// clause; person>=1 was held only by that clause and goes with it,
	// while car>=2 and bus>=1 survive inside overlap's clauses.
	ev.Remove(1)
	if preds, clauses, bodies = liveNodes(p); preds != 3 || clauses != 3 || bodies != 2 {
		t.Fatalf("after Remove(1): %d/%d/%d live, want 3/3/2", preds, clauses, bodies)
	}
	ev.Remove(3)
	if preds, clauses, bodies = liveNodes(p); preds != 1 || clauses != 1 || bodies != 1 {
		t.Fatalf("after Remove(3): %d/%d/%d live, want 1/1/1", preds, clauses, bodies)
	}
	ev.Remove(4)
	if preds, clauses, bodies = liveNodes(p); preds != 0 || clauses != 0 || bodies != 0 {
		t.Fatalf("after removing all: %d/%d/%d live, want 0/0/0", preds, clauses, bodies)
	}
	if len(p.predOf) != 0 || len(p.slotOf) != 0 {
		t.Fatalf("lookup tables not empty: %d preds, %d slots", len(p.predOf), len(p.slotOf))
	}

	// Re-adding reuses freed nodes: the arenas must not grow.
	np, nc, nb := len(p.preds), len(p.clauses), len(p.bodies)
	if err := ev.Add(same1); err != nil {
		t.Fatal(err)
	}
	if len(p.preds) != np || len(p.clauses) != nc || len(p.bodies) != nb {
		t.Fatalf("arenas grew on re-add: %d/%d/%d → %d/%d/%d",
			np, nc, nb, len(p.preds), len(p.clauses), len(p.bodies))
	}
}

// TestPlanIncrementalEqualsBatch drives the same final query set two
// ways — batch construction versus a churny add/remove sequence — and
// asserts byte-identical evaluation output.
func TestPlanIncrementalEqualsBatch(t *testing.T) {
	reg := vr.StandardRegistry()
	final := []cnf.Query{
		mkQuery(t, 1, "car >= 2", 4, 1),
		mkQuery(t, 2, "person >= 1 AND car >= 1", 4, 2),
		mkQuery(t, 3, "(car >= 2 OR person >= 2)", 4, 1),
	}
	churn := []cnf.Query{
		mkQuery(t, 4, "car >= 2", 4, 3),                 // twin of q1's body
		mkQuery(t, 5, "person = 1", 4, 1),               // unique predicate
		mkQuery(t, 6, "car <= 1 AND person >= 1", 4, 2), // unique clause mix
	}

	batch, err := NewEvaluator(reg, final)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewEvaluator(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: add churn queries, the final ones, then strip churn.
	order := []cnf.Query{churn[0], final[0], churn[1], final[1], churn[2], final[2]}
	for _, q := range order {
		if err := inc.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range churn {
		if !inc.Remove(q.ID) {
			t.Fatalf("Remove(%d) = false", q.ID)
		}
	}

	states := buildStates(t, []objset.Set{
		objset.New(2, 4),
		objset.New(1, 2, 4),
		objset.New(1, 3),
		objset.New(1, 2, 3, 4),
	}, 4, 1)
	want := batch.EvaluateStates(states, classOf)
	got := inc.EvaluateStates(states, classOf)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental ≠ batch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(inc.Queries(), final) {
		t.Fatalf("Queries() = %+v, want %+v", inc.Queries(), final)
	}
}

// TestPlanPatchSteadyStateAllocs pins the zero-allocation property of
// warm plan patches: once node arenas, free lists and scratch buffers
// have seen a shape, a full subscribe/cancel cycle allocates nothing.
func TestPlanPatchSteadyStateAllocs(t *testing.T) {
	reg := vr.StandardRegistry()
	ev, err := NewEvaluator(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := []cnf.Query{
		mkQuery(t, 1, "(car >= 2 OR person >= 1) AND bus >= 1", 10, 3),
		mkQuery(t, 2, "bus >= 1 AND car >= 2", 10, 5),
		mkQuery(t, 3, "truck = 2 AND person <= 4 AND #6", 10, 4),
	}
	cycle := func() {
		for _, q := range qs {
			if err := ev.Add(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range qs {
			if !ev.Remove(q.ID) {
				t.Fatalf("Remove(%d) = false", q.ID)
			}
		}
	}
	cycle() // warm arenas and scratch
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state plan patch allocates: %.1f allocs/cycle", allocs)
	}
}

// TestPlanGeneration checks that every patch bumps the generation the
// §5.3 termination memo keys on.
func TestPlanGeneration(t *testing.T) {
	reg := vr.StandardRegistry()
	ev, err := NewEvaluator(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g0 := ev.Generation()
	if err := ev.Add(mkQuery(t, 1, "car >= 1", 10, 5)); err != nil {
		t.Fatal(err)
	}
	if ev.Generation() == g0 {
		t.Fatal("Add did not bump generation")
	}
	g1 := ev.Generation()
	ev.Remove(1)
	if ev.Generation() == g1 {
		t.Fatal("Remove did not bump generation")
	}
}

// TestEvaluateStatesFanout pins what evaluation costs and guarantees
// when many subscriptions share few bodies: a call makes two
// allocations — the matches and one block holding every matched
// state's frame list — however many subscribers there are; the matches
// of one state share that state's list; and the output is ordered by
// (query id, object set) whatever order the queries were added in and
// whichever were removed since.
func TestEvaluateStatesFanout(t *testing.T) {
	reg := vr.StandardRegistry()
	var bodies []string
	for car := 1; car <= 4; car++ {
		for person := 1; person <= 4; person++ {
			bodies = append(bodies,
				fmt.Sprintf("car >= %d AND person >= %d", car, person),
				fmt.Sprintf("(car >= %d OR person >= %d)", car, person))
		}
	}
	states := buildStates(t, []objset.Set{
		objset.New(1, 2, 3, 4, 5, 6, 8),
		objset.New(1, 2, 3, 4, 6),
		objset.New(1, 2, 4, 5, 6, 8),
		objset.New(2, 3, 4, 5),
		objset.New(1, 2, 3, 4, 5, 6, 8),
	}, 5, 2)
	if len(states) < 3 {
		t.Fatalf("%d states: the feed is too simple to say anything", len(states))
	}

	matches := map[int]int{}
	for _, nsubs := range []int{len(bodies), 1000} {
		ev, err := NewEvaluator(reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Descending ids with every third query removed again: the plan's
		// slot order is nothing like the id order.
		for i := nsubs + nsubs/2; i > 0; i-- {
			if err := ev.Add(mkQuery(t, i, bodies[i%len(bodies)], 5, 2+i%2)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 3; i <= nsubs+nsubs/2; i += 3 {
			ev.Remove(i)
		}

		out := ev.EvaluateStates(states, classOf) // also warms the scratch and the states' class counts
		matches[nsubs] = len(out)
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			if a.QueryID > b.QueryID || a.QueryID == b.QueryID && objset.Compare(a.Objects, b.Objects) >= 0 {
				t.Fatalf("%d subscribers: matches %d and %d out of order: (%d, %v) then (%d, %v)",
					nsubs, i-1, i, a.QueryID, a.Objects, b.QueryID, b.Objects)
			}
		}
		lists := map[string]*vr.FrameID{}
		for _, m := range out {
			if m.QueryID%3 == 0 {
				t.Fatalf("removed query %d matched", m.QueryID)
			}
			if first, ok := lists[m.Objects.Key()]; !ok {
				lists[m.Objects.Key()] = &m.Frames[0]
			} else if first != &m.Frames[0] {
				t.Fatalf("%d subscribers: two matches of %v hold separate frame lists", nsubs, m.Objects)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() { ev.EvaluateStates(states, classOf) }); allocs > 2 {
			t.Errorf("%d subscribers, %d matches over %d states: %.0f allocations per call, want 2",
				nsubs, len(out), len(lists), allocs)
		}
	}
	if matches[1000] < 10*matches[len(bodies)] || matches[len(bodies)] == 0 {
		t.Fatalf("matches by subscriber count: %v; the fan-out is not being exercised", matches)
	}
}
