package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// The shared plan checked against evaluators it did not write: the
// paper's CNFEvalE (cnf.EvalE, §5.2) and, for queries without identity
// atoms, the index-free cnf.Query.EvalDirect. Neither shares code with
// plan.go, and no product path runs them — being this oracle is what
// they are kept for.

// diffClassOf spreads object ids over the standard registry's four
// classes.
func diffClassOf(id objset.ID) vr.Class { return vr.Class(id % 4) }

// diffShapes is one seed's vocabulary: small pools of predicates,
// clauses and bodies that queries draw from, so predicates recur across
// clauses, clauses across bodies and whole bodies across queries — the
// sharing the plan hash-conses.
type diffShapes struct {
	rng     *rand.Rand
	window  int
	preds   []cnf.Condition
	clauses []cnf.Disjunction
	bodies  [][]cnf.Disjunction
}

func newDiffShapes(rng *rand.Rand, window int) *diffShapes {
	sh := &diffShapes{rng: rng, window: window}
	// "bike" is in no registry: its count is always zero.
	labels := []string{"person", "car", "truck", "bus", "bike"}
	for i := 0; i < 10; i++ {
		if rng.Intn(4) == 0 {
			sh.preds = append(sh.preds, cnf.Condition{Identity: true, N: 1 + rng.Intn(diffObjects)})
			continue
		}
		sh.preds = append(sh.preds, cnf.Condition{
			Label: labels[rng.Intn(len(labels))],
			Op:    cnf.Op(rng.Intn(3)),
			N:     rng.Intn(4),
		})
	}
	for i := 0; i < 8; i++ {
		sh.clauses = append(sh.clauses, sh.clause())
	}
	for i := 0; i < 5; i++ {
		sh.bodies = append(sh.bodies, sh.body())
	}
	return sh
}

func (sh *diffShapes) clause() cnf.Disjunction {
	d := make(cnf.Disjunction, 1+sh.rng.Intn(3))
	for i := range d {
		d[i] = sh.preds[sh.rng.Intn(len(sh.preds))]
	}
	return d
}

func (sh *diffShapes) body() []cnf.Disjunction {
	b := make([]cnf.Disjunction, 1+sh.rng.Intn(3))
	for i := range b {
		if sh.rng.Intn(3) == 0 {
			b[i] = sh.clause()
		} else {
			b[i] = sh.clauses[sh.rng.Intn(len(sh.clauses))]
		}
	}
	return b
}

// query draws a pooled body two times in three — its clauses reversed
// half the time, which must not defeat the sharing — and a fresh one
// otherwise, under a random duration.
func (sh *diffShapes) query(id int) cnf.Query {
	var body []cnf.Disjunction
	if sh.rng.Intn(3) == 0 {
		body = sh.body()
	} else {
		body = slices.Clone(sh.bodies[sh.rng.Intn(len(sh.bodies))])
		if sh.rng.Intn(2) == 0 {
			slices.Reverse(body)
		}
	}
	return cnf.Query{ID: id, Clauses: body, Window: sh.window, Duration: 1 + sh.rng.Intn(sh.window)}
}

const diffObjects = 9

// TestPlanAgainstCNFEvalE: for seeded random query sets (mixed ≥/≤/=,
// identity atoms, shared predicates, clauses and bodies) over the states
// a real generator emits, with queries subscribed and cancelled between
// evaluations, the (query, state) matches of EvaluateStatesFrom are
// exactly those CNFEvalE reports per state once each query's own
// duration is applied, in (query id, object set) order, each carrying
// its state's frames.
func TestPlanAgainstCNFEvalE(t *testing.T) {
	reg := vr.StandardRegistry()
	labels := reg.Names()
	matched, identityMatched := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := 3 + rng.Intn(4)
		sh := newDiffShapes(rng, window)
		gen := core.NewMFS(core.Config{Window: window, Duration: 1})
		start := vr.FrameID(rng.Intn(50))

		plan, err := NewEvaluator(reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := cnf.NewEvalE()
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]cnf.Query{}
		nextID := 1
		subscribe := func() {
			q := sh.query(nextID)
			nextID++
			if err := plan.Add(q); err != nil {
				t.Fatalf("seed %d: plan.Add(%v): %v", seed, q, err)
			}
			if err := oracle.Add(q); err != nil {
				t.Fatalf("seed %d: oracle.Add(%v): %v", seed, q, err)
			}
			live[q.ID] = q
		}
		cancel := func() {
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				return
			}
			slices.Sort(ids)
			id := ids[rng.Intn(len(ids))]
			if !plan.Remove(id) || !oracle.Remove(id) {
				t.Fatalf("seed %d: Remove(%d) found no query", seed, id)
			}
			delete(live, id)
		}
		for i := 0; i < 6; i++ {
			subscribe()
		}

		for fid := vr.FrameID(0); fid < 40; fid++ {
			// Churn between evaluations: the plan is patched, never
			// rebuilt, so every evaluation runs on a plan with history.
			for n := rng.Intn(3); n > 0; n-- {
				if rng.Intn(2) == 0 && len(live) < 12 {
					subscribe()
				} else {
					cancel()
				}
			}
			var ids []objset.ID
			for id := objset.ID(1); id <= diffObjects; id++ {
				if rng.Intn(3) > 0 {
					ids = append(ids, id)
				}
			}
			states := gen.Process(vr.Frame{FID: fid, Objects: objset.FromSorted(ids)})

			var want []string
			for _, s := range states {
				counts := map[string]int{}
				s.Objects.Range(func(id objset.ID) bool {
					counts[labels[diffClassOf(id)]]++
					return true
				})
				has := func(id uint32) bool { return s.Objects.Contains(objset.ID(id)) }
				satisfied := oracle.MatchesSet(counts, has)
				for id, q := range live {
					if !q.HasIdentity() && q.EvalDirect(counts) != slices.Contains(satisfied, id) {
						t.Fatalf("seed %d frame %d: the oracles disagree on q%d (%v) over %v", seed, fid, id, q, s.Objects)
					}
				}
				for _, id := range satisfied {
					if s.FrameCount() >= live[id].Duration {
						want = append(want, fmt.Sprintf("q%d %v %v", id, s.Objects, shifted(s.Frames(), start)))
						if live[id].HasIdentity() {
							identityMatched++
						}
					}
				}
			}
			slices.Sort(want)

			matches := plan.EvaluateStatesFrom(states, diffClassOf, start)
			if !slices.IsSortedFunc(matches, func(a, b Match) int {
				if a.QueryID != b.QueryID {
					return a.QueryID - b.QueryID
				}
				return objset.Compare(a.Objects, b.Objects)
			}) {
				t.Fatalf("seed %d frame %d: matches not in (query id, object set) order", seed, fid)
			}
			got := make([]string, len(matches))
			for i, m := range matches {
				got[i] = fmt.Sprintf("q%d %v %v", m.QueryID, m.Objects, m.Frames)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d frame %d, %d queries over %d states: plan and CNFEvalE disagree\n plan: %v\nevalE: %v\nqueries: %v",
					seed, fid, len(live), len(states), got, want, live)
			}
			matched += len(got)
		}
	}
	if matched < 1000 || identityMatched == 0 {
		t.Fatalf("only %d matches (%d through identity queries): the workload does not exercise the plan", matched, identityMatched)
	}
}

func shifted(frames []vr.FrameID, by vr.FrameID) []vr.FrameID {
	out := make([]vr.FrameID, len(frames))
	for i, f := range frames {
		out[i] = f + by
	}
	return out
}
