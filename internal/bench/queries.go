package bench

import (
	"math/rand"

	"tvq/internal/cnf"
)

// workloadLabels are the classes the paper's experiments query (§6.1).
var workloadLabels = []string{"person", "car", "truck", "bus"}

// MixedWorkload generates n random CNF queries mixing ≥, ≤ and =
// conditions — the workload of Figure 8 and Figure 10. Deterministic in
// seed.
func MixedWorkload(n, window, duration int, seed int64) []cnf.Query {
	r := rand.New(rand.NewSource(seed))
	out := make([]cnf.Query, 0, n)
	for i := 0; i < n; i++ {
		q := cnf.Query{ID: i + 1, Window: window, Duration: duration}
		nclauses := 1 + r.Intn(3)
		for c := 0; c < nclauses; c++ {
			nconds := 1 + r.Intn(2)
			var d cnf.Disjunction
			for j := 0; j < nconds; j++ {
				d = append(d, cnf.Condition{
					Label: workloadLabels[r.Intn(len(workloadLabels))],
					Op:    cnf.Op(r.Intn(3)),
					N:     r.Intn(5),
				})
			}
			q.Clauses = append(q.Clauses, d)
		}
		out = append(out, q)
	}
	return out
}

// ScalingWorkload generates n subscriptions drawn round-robin from a
// fixed catalog of `shapes` distinct query bodies — the fleet model of
// a serving deployment, where thousands of standing subscriptions reuse
// popular query shapes. Thresholds are high so matches stay rare and
// the measurement isolates per-frame evaluation cost from emission
// volume. Queries get distinct ids and share window/duration; the
// catalog (and so the shared plan's node population) is independent of
// n. Deterministic in seed.
func ScalingWorkload(n, shapes, window, duration int, seed int64) []cnf.Query {
	r := rand.New(rand.NewSource(seed))
	catalog := make([][]cnf.Disjunction, shapes)
	for s := range catalog {
		nclauses := 1 + r.Intn(3)
		body := make([]cnf.Disjunction, 0, nclauses)
		for c := 0; c < nclauses; c++ {
			nconds := 1 + r.Intn(2)
			var d cnf.Disjunction
			for j := 0; j < nconds; j++ {
				d = append(d, cnf.Condition{
					Label: workloadLabels[r.Intn(len(workloadLabels))],
					Op:    cnf.GE,
					N:     6 + r.Intn(6),
				})
			}
			body = append(body, d)
		}
		catalog[s] = body
	}
	out := make([]cnf.Query, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cnf.Query{ID: i + 1, Window: window, Duration: duration, Clauses: catalog[i%shapes]})
	}
	return out
}

// ScalingShapes is the catalog size of the scaling workload: enough
// distinct bodies that the plan is non-trivial, few enough that 10k
// subscriptions heavily share them.
const ScalingShapes = 64

// ScalingQueryCounts are the subscription counts the query-scaling
// benchmark sweeps (BenchmarkQueryScaling).
var ScalingQueryCounts = []int{10, 100, 1000, 10000}

// GEWorkload generates n ≥-only queries whose smallest threshold is
// exactly nmin — the Figure 9 workload ("100 queries containing ≥
// conditions only", n_min = min threshold over all conditions).
// Deterministic in seed.
func GEWorkload(n, nmin, window, duration int, seed int64) []cnf.Query {
	r := rand.New(rand.NewSource(seed))
	out := make([]cnf.Query, 0, n)
	for i := 0; i < n; i++ {
		q := cnf.Query{ID: i + 1, Window: window, Duration: duration}
		nclauses := 1 + r.Intn(3)
		for c := 0; c < nclauses; c++ {
			nconds := 1 + r.Intn(2)
			var d cnf.Disjunction
			for j := 0; j < nconds; j++ {
				d = append(d, cnf.Condition{
					Label: workloadLabels[r.Intn(len(workloadLabels))],
					Op:    cnf.GE,
					N:     nmin + r.Intn(3),
				})
			}
			q.Clauses = append(q.Clauses, d)
		}
		out = append(out, q)
	}
	// Pin the global minimum: force one condition of the first query to
	// exactly nmin so min over all conditions equals the parameter.
	out[0].Clauses[0][0].N = nmin
	return out
}
