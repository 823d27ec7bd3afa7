// Package cnf implements the query model of the paper and its evaluation
// algorithms: queries are Conjunctive Normal Form expressions over
// conditions of the form `class θ n` with θ ∈ {≤, =, ≥} (§2), evaluated
// against the per-class object counts of an MCOS.
//
// Two evaluators are provided. Eval is the inverted-index CNF algorithm of
// Whang et al. [24] for set-membership predicates (§5.1). EvalE extends it
// with ordered indexes for the inequality predicates the paper's queries
// need (§5.2): one index per comparison operator, with posting lists
// scanned in value order so only qualifying conditions are touched.
package cnf

import (
	"fmt"
	"sort"
	"strings"
)

// Op is the comparison operator of a condition.
type Op uint8

// The three operators queries may use (§2).
const (
	LE Op = iota // ≤
	EQ           // =
	GE           // ≥
)

// String renders the operator as it appears in query text.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Condition is one atom of a query. In its usual form `Label θ N` it
// compares the number of objects of class Label in the MCOS against N.
// With Identity set it is instead an external-identity constraint
// (written `#N` in query text): the tracked object with identifier N must
// itself be a member of the MCOS. Identity constraints are how queries
// pin "the same two red cars" once external knowledge (e.g. a license
// plate read) ties an identity to a tracker id (§1).
type Condition struct {
	Label    string
	Op       Op
	N        int
	Identity bool
}

// Matches reports whether a count of objects satisfies a count condition.
// It is false for identity conditions, which need the object set (see
// Query.EvalSet).
func (c Condition) Matches(count int) bool {
	if c.Identity {
		return false
	}
	switch c.Op {
	case LE:
		return count <= c.N
	case EQ:
		return count == c.N
	case GE:
		return count >= c.N
	}
	return false
}

// String renders the condition as query text, e.g. "car >= 2" or "#17".
func (c Condition) String() string {
	if c.Identity {
		return fmt.Sprintf("#%d", c.N)
	}
	return fmt.Sprintf("%s %s %d", c.Label, c.Op, c.N)
}

// Disjunction is a clause: the OR of one or more conditions.
type Disjunction []Condition

// String renders the clause as query text.
func (d Disjunction) String() string {
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = c.String()
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Query is a CNF expression: the AND of its disjunctions, evaluated over
// a window of Window frames with duration threshold Duration (§2).
type Query struct {
	// ID identifies the query; unique within an index.
	ID int
	// Clauses is the conjunction of disjunctions. A query with no
	// clauses is trivially true.
	Clauses []Disjunction
	// Window is the sliding-window size w in frames.
	Window int
	// Duration is the minimum number of frames d the MCOS must appear in.
	Duration int
}

// String renders the query as parseable text (window/duration excluded).
func (q Query) String() string {
	parts := make([]string, len(q.Clauses))
	for i, d := range q.Clauses {
		parts[i] = d.String()
	}
	return strings.Join(parts, " AND ")
}

// Labels returns the distinct class labels the query references.
func (q Query) Labels() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range q.Clauses {
		for _, c := range d {
			if c.Identity {
				continue
			}
			if !seen[c.Label] {
				seen[c.Label] = true
				out = append(out, c.Label)
			}
		}
	}
	sort.Strings(out)
	return out
}

// GEOnly reports whether every condition is monotone under taking
// subsets of the object set — the precondition for the §5.3
// result-driven pruning strategy (Proposition 1). ≥ conditions qualify
// (subsets have no larger counts); identity conditions qualify too (a
// subset cannot gain a member).
func (q Query) GEOnly() bool {
	for _, d := range q.Clauses {
		for _, c := range d {
			if !c.Identity && c.Op != GE {
				return false
			}
		}
	}
	return true
}

// HasIdentity reports whether any condition is an identity constraint.
func (q Query) HasIdentity() bool {
	for _, d := range q.Clauses {
		for _, c := range d {
			if c.Identity {
				return true
			}
		}
	}
	return false
}

// MaxWindow is the largest query window in frames, 36 minutes at 30 fps:
// generators allocate window-sized rings up front, decoders included.
const MaxWindow = 1 << 16

// Validate checks structural soundness: clauses non-empty, counts
// non-negative, window in [1, MaxWindow], duration within the window.
func (q Query) Validate() error {
	if q.Window <= 0 || q.Window > MaxWindow {
		return fmt.Errorf("cnf: query %d: window %d out of range [1, %d]", q.ID, q.Window, MaxWindow)
	}
	if q.Duration < 0 || q.Duration > q.Window {
		return fmt.Errorf("cnf: query %d: duration %d out of range [0, %d]", q.ID, q.Duration, q.Window)
	}
	for i, d := range q.Clauses {
		if len(d) == 0 {
			return fmt.Errorf("cnf: query %d: clause %d is empty", q.ID, i)
		}
		for _, c := range d {
			if c.Identity {
				if c.N < 0 {
					return fmt.Errorf("cnf: query %d: negative object id in %q", q.ID, c)
				}
				continue
			}
			if c.Label == "" {
				return fmt.Errorf("cnf: query %d: clause %d has a condition with no label", q.ID, i)
			}
			if c.N < 0 {
				return fmt.Errorf("cnf: query %d: negative count in %q", q.ID, c)
			}
			if c.Op > GE {
				return fmt.Errorf("cnf: query %d: invalid operator in clause %d", q.ID, i)
			}
		}
	}
	return nil
}

// EvalDirect evaluates the query against per-class counts without any
// index — the reference semantics used by tests and by one-off checks.
// counts maps class label to the number of objects of that class; absent
// labels count zero. Identity conditions evaluate false (no object set
// is available); use EvalSet when the query has identity constraints.
func (q Query) EvalDirect(counts map[string]int) bool {
	return q.EvalSet(counts, nil)
}

// EvalSet evaluates the query against per-class counts plus a membership
// test for identity conditions: has(id) reports whether the tracked
// object id is a member of the MCOS. A nil has treats every identity
// condition as false.
func (q Query) EvalSet(counts map[string]int, has func(id uint32) bool) bool {
	for _, d := range q.Clauses {
		ok := false
		for _, c := range d {
			if c.Identity {
				if has != nil && c.N >= 0 && has(uint32(c.N)) {
					ok = true
					break
				}
				continue
			}
			if c.Matches(counts[c.Label]) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
