package cnf

import (
	"slices"
	"strings"
)

// Clause normalization and hashing: the canonical form that lets the
// shared query plan (internal/query) hash-cons predicates and clauses
// across queries. Two clauses that differ only in condition order or in
// repeated conditions are the same disjunction, so they normalize to
// the same sequence and hash to the same value.

// CompareConditions orders conditions canonically: count conditions
// before identity constraints, then by label, operator and threshold.
func CompareConditions(a, b Condition) int {
	if a.Identity != b.Identity {
		if a.Identity {
			return 1
		}
		return -1
	}
	if c := strings.Compare(a.Label, b.Label); c != 0 {
		return c
	}
	if a.Op != b.Op {
		return int(a.Op) - int(b.Op)
	}
	return a.N - b.N
}

// AppendNormalized appends the clause's canonical form — conditions in
// CompareConditions order, duplicates removed — to dst and returns the
// extended slice. Callers on zero-allocation paths reuse dst across
// calls.
func (d Disjunction) AppendNormalized(dst Disjunction) Disjunction {
	start := len(dst)
	dst = append(dst, d...)
	slices.SortFunc(dst[start:], CompareConditions)
	w := start
	for i := start; i < len(dst); i++ {
		if i > start && dst[i] == dst[i-1] {
			continue
		}
		dst[w] = dst[i]
		w++
	}
	return dst[:w]
}

// FNV-1a, the hash used for clause content hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// HashUint32s content-hashes a sequence of 32-bit values — the shared
// plan's clause and body identities are sorted handle lists hashed with
// this.
func HashUint32s(vals []uint32) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vals {
		h = fnvUint64(h, uint64(v))
	}
	return h
}

// Hash content-hashes one condition.
func (c Condition) Hash() uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(c.Label); i++ {
		h = fnvByte(h, c.Label[i])
	}
	h = fnvByte(h, byte(c.Op))
	h = fnvUint64(h, uint64(c.N))
	if c.Identity {
		h = fnvByte(h, 1)
	} else {
		h = fnvByte(h, 0)
	}
	return h
}

// Hash content-hashes the clause's canonical form: clauses equal up to
// condition order and duplication hash identically.
func (d Disjunction) Hash() uint64 {
	conds := d.AppendNormalized(nil)
	h := uint64(fnvOffset)
	for _, c := range conds {
		h = fnvUint64(h, c.Hash())
	}
	return h
}
