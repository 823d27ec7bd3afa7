// Package objset implements the object-set algebra that underlies MCOS
// generation: immutable sets of tracked-object identifiers with fast
// intersection, subset and equality tests, hash-consing into stable
// integer handles, and a compact key usable as a map key.
//
// A Set is stored in one of two interchangeable representations:
//
//   - sparse: a strictly increasing slice of object ids. Operations are
//     O(n) merge scans. This is the form produced by New and FromSorted.
//   - dense: a []uint64 bitmap covering the set's id range, chosen by
//     Compact when the ids are dense enough that the bitmap is smaller
//     than the id slice. Intersection, subset and difference become
//     word-parallel loops (64 ids per step).
//
// Both forms live in the one backing slice of a 32-byte header; see Set.
//
// The two forms are semantically identical: Equal, Hash, Compare, Key and
// every algebraic operation agree regardless of representation (this is
// enforced by property tests). A Set is never mutated after creation
// except through the explicitly-documented owner-only operations
// (IntersectWith), so Sets may be shared freely between states, graph
// nodes and result sets.
//
// The allocation discipline for hot paths is: compute transient results
// into a caller-supplied Scratch with IntersectInto, and only when a
// result must be retained copy it out with Clone — or intern it in an
// Interner, which clones into owned storage and returns a stable uint32
// Handle so later equality tests are one integer compare.
package objset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// ID identifies one tracked object. Identifiers are assigned by the
// object-tracking layer and are persistent for an object across the frames
// in which it appears (including across occlusions).
type ID = uint32

// Set is an immutable set of object identifiers in sparse (sorted slice)
// or dense (bitmap) representation.
//
// The zero value is the empty set.
type Set struct {
	// ids is the one backing slice of both forms. Sparse (card == 0): the
	// members, strictly increasing; nil or empty for the empty set. Dense
	// (card ≥ 1): the storage of the bitmap words, two ids a word, read
	// through words. Dense storage is always allocated as []uint64, so it
	// is 8-byte aligned; it never comes from an []ID buffer.
	ids []ID

	// Dense form: bit b of words()[w] set means id off+64*w+b is a member.
	// Invariants: words() is non-empty, its first and last words are
	// non-zero, off is a multiple of 64, and card is the total popcount.
	// A sparse set has off 0.
	off  ID
	card int32
}

// words returns a dense set's bitmap, with the capacity of its storage.
// It and dense are the only places the package converts between the
// two element types.
func (s Set) words() []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s.ids))), cap(s.ids)/2)[:len(s.ids)/2]
}

// dense returns the dense set of card ≥ 1 members whose bitmap is w,
// non-empty and trimmed, with bit 0 of w[0] standing for off. The set
// keeps w's storage, capacity included.
func dense(w []uint64, off ID, card int) Set {
	ids := unsafe.Slice((*ID)(unsafe.Pointer(unsafe.SliceData(w))), 2*cap(w))[:2*len(w)]
	return Set{ids: ids, off: off, card: int32(card)}
}

// Empty is the empty object set.
var Empty = Set{}

// denseMinLen is the minimum cardinality for Compact to consider the
// bitmap form; below it the sparse merge scans are at least as fast and
// smaller.
const denseMinLen = 8

// New builds a Set from ids. The input may be unsorted and contain
// duplicates; it is not retained. The representation is chosen
// adaptively (see Compact).
func New(ids ...ID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	s := make([]ID, len(ids))
	copy(s, ids)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// Dedupe in place.
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Compact(Set{ids: out})
}

// FromSorted wraps an already strictly-increasing slice without copying.
// The caller must not modify ids afterwards. It panics if ids is not
// strictly increasing; this guards the core invariant of the package.
// The result is always in sparse form; use Compact to let the package
// pick the cheaper representation (at the cost of a copy).
func FromSorted(ids []ID) Set {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			panic(fmt.Sprintf("objset.FromSorted: ids not strictly increasing at %d: %v", i, ids))
		}
	}
	if len(ids) == 0 {
		return Set{}
	}
	return Set{ids: ids}
}

// denseWorthwhile reports whether a set of n ids spanning nwords bitmap
// words is cheaper as a bitmap: the words (8 bytes each) must not exceed
// the ids (4 bytes each), i.e. average ≥ 2 members per 64-id word, which
// also bounds the word-loop length at half the merge-scan length.
func denseWorthwhile(n, nwords int) bool {
	return n >= denseMinLen && nwords <= n/2
}

// Compact returns s in its cheaper representation: a dense bitmap when
// the ids are window-local and dense, s unchanged otherwise. Converting
// copies; the input is never modified, so compacting a shared set is
// safe.
func Compact(s Set) Set {
	if s.card != 0 || len(s.ids) == 0 {
		return s
	}
	nwords := denseWords(s.ids)
	if nwords == 0 {
		return s
	}
	return fillDense(s.ids, make([]uint64, nwords))
}

// denseWords returns the bitmap length of the strictly increasing,
// non-empty ids when the bitmap form is the cheaper one, and 0 when
// they are better kept sparse.
func denseWords(ids []ID) int {
	nwords := int(ids[len(ids)-1]/64-ids[0]/64) + 1
	if !denseWorthwhile(len(ids), nwords) {
		return 0
	}
	return nwords
}

// fillDense sets the bits of ids in words, which must be zeroed and
// denseWords(ids) long, and returns the dense set they form.
func fillDense(ids []ID, words []uint64) Set {
	off := ids[0] &^ 63
	for _, id := range ids {
		words[(id-off)/64] |= 1 << ((id - off) % 64)
	}
	return dense(words, off, len(ids))
}

// Clone returns a copy of s backed by freshly-owned storage, in the
// cheaper of the two representations. Use it to retain a Scratch-backed
// result from IntersectInto past the next use of the Scratch.
func (s Set) Clone() Set {
	switch {
	case s.card != 0:
		// Re-evaluate the representation: an intersection can leave a
		// sparse-worthy population spread over many words.
		sw := s.words()
		if !denseWorthwhile(int(s.card), len(sw)) {
			return Set{ids: s.AppendTo(make([]ID, 0, s.card))}
		}
		w := make([]uint64, len(sw))
		copy(w, sw)
		return dense(w, s.off, int(s.card))
	case len(s.ids) > 0:
		ids := make([]ID, len(s.ids))
		copy(ids, s.ids)
		return Compact(Set{ids: ids})
	default:
		return Set{}
	}
}

// Bytes returns the capacity of the set's storage in bytes, ids or
// bitmap words, without the Set header: what the set holds on the heap.
func (s Set) Bytes() int { return 4 * cap(s.ids) }

// Len returns the number of objects in the set.
func (s Set) Len() int {
	if s.card != 0 {
		return int(s.card)
	}
	return len(s.ids)
}

// IsEmpty reports whether the set has no members. A dense set's
// storage holds at least one word, so the length of ids decides for
// both forms.
func (s Set) IsEmpty() bool { return len(s.ids) == 0 }

// IDs returns the members in increasing order. For a sparse set the
// returned slice is shared and must not be modified; for a dense set it
// is freshly materialized. Prefer Range or AppendTo in allocation-
// sensitive code.
func (s Set) IDs() []ID {
	if s.card != 0 {
		return s.AppendTo(make([]ID, 0, s.card))
	}
	return s.ids
}

// AppendTo appends the members in increasing order to dst and returns
// the extended slice.
func (s Set) AppendTo(dst []ID) []ID {
	if s.card == 0 {
		return append(dst, s.ids...)
	}
	for wi, w := range s.words() {
		base := s.off + ID(wi)*64
		for w != 0 {
			dst = append(dst, base+ID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Range calls f on every member in increasing order until f returns
// false. It never allocates.
func (s Set) Range(f func(ID) bool) {
	if s.card == 0 {
		for _, id := range s.ids {
			if !f(id) {
				return
			}
		}
		return
	}
	for wi, w := range s.words() {
		base := s.off + ID(wi)*64
		for w != 0 {
			if !f(base + ID(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}

// Contains reports whether id is a member of s.
func (s Set) Contains(id ID) bool {
	if s.card != 0 {
		if id < s.off {
			return false
		}
		w, i := s.words(), int(id-s.off)/64
		return i < len(w) && w[i]&(1<<((id-s.off)%64)) != 0
	}
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// Equal reports whether s and t have identical members, regardless of
// representation.
func (s Set) Equal(t Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	if (s.card == 0) == (t.card == 0) {
		// Same form: a sparse set's ids are its members, and the trim
		// invariant (no zero words at either end) makes the dense form
		// canonical, so equal sets have equal off and storage contents.
		return s.off == t.off && slices.Equal(s.ids, t.ids)
	}
	sp, d := s, t
	if sp.card != 0 {
		sp, d = t, s
	}
	for _, id := range sp.ids {
		if !d.Contains(id) {
			return false
		}
	}
	return true // lengths match and every sparse member is in d
}

// Compare orders sets by their ascending id sequences lexicographically
// (a proper prefix sorts first). It is a total order consistent with
// Equal, identical for both representations, and allocation-free — the
// comparator emit-time sorting uses instead of building Key strings.
func Compare(s, t Set) int {
	if s.card == 0 && t.card == 0 {
		return slices.Compare(s.ids, t.ids)
	}
	sc, tc := newCursor(s), newCursor(t)
	for {
		a, okA := sc.next()
		b, okB := tc.next()
		switch {
		case !okA && !okB:
			return 0
		case !okA:
			return -1
		case !okB:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
}

// cursor iterates a set's members in increasing order without
// allocating, for the mixed-representation slow paths.
type cursor struct {
	ids   []ID
	i     int
	words []uint64
	off   ID
	wi    int
	w     uint64
}

func newCursor(s Set) cursor {
	if s.card == 0 {
		return cursor{ids: s.ids}
	}
	w := s.words()
	return cursor{words: w, off: s.off, w: w[0]}
}

func (c *cursor) next() (ID, bool) {
	if c.words != nil {
		for {
			if c.w != 0 {
				b := bits.TrailingZeros64(c.w)
				c.w &= c.w - 1
				return c.off + ID(c.wi*64+b), true
			}
			c.wi++
			if c.wi >= len(c.words) {
				return 0, false
			}
			c.w = c.words[c.wi]
		}
	}
	if c.i >= len(c.ids) {
		return 0, false
	}
	id := c.ids[c.i]
	c.i++
	return id, true
}

// denseOverlap computes the index windows of s's and t's words that
// cover the same id range; ok is false when the ranges are disjoint.
// Range ends are computed in uint64: a set whose ids reach the top
// 64-id block has an exclusive end of exactly 2^32, which would wrap
// to 0 in ID arithmetic and make the set disjoint from everything —
// including itself.
func denseOverlap(s, t Set) (si, ti, n int, ok bool) {
	sOff, tOff := uint64(s.off), uint64(t.off)
	sEnd := sOff + uint64(len(s.words()))*64
	tEnd := tOff + uint64(len(t.words()))*64
	lo, hi := sOff, sEnd
	if tOff > lo {
		lo = tOff
	}
	if tEnd < hi {
		hi = tEnd
	}
	if lo >= hi {
		return 0, 0, 0, false
	}
	return int((lo - sOff) / 64), int((lo - tOff) / 64), int((hi - lo) / 64), true
}

// Intersect returns s ∩ t. The result is freshly allocated (unless
// empty); use IntersectInto with a Scratch on hot paths.
func (s Set) Intersect(t Set) Set {
	var b Scratch
	return s.IntersectInto(t, &b).Clone()
}

// Scratch is a reusable buffer for allocation-free set operations. The
// zero value is ready to use; buffers grow on demand and are retained
// across calls. A Scratch must not be used concurrently, and a Set
// returned by IntersectInto is only valid until the Scratch's next use.
type Scratch struct {
	ids   []ID
	words []uint64
}

// IntersectInto computes s ∩ t into b and returns the result. The
// returned Set aliases b's storage: it is valid only until b is used
// again, and must be copied with Clone (or interned) to be retained. In
// steady state it performs no allocations.
func (s Set) IntersectInto(t Set, b *Scratch) Set {
	switch {
	case s.IsEmpty() || t.IsEmpty():
		return Set{}
	case s.card != 0 && t.card != 0:
		si, ti, n, ok := denseOverlap(s, t)
		if !ok {
			return Set{}
		}
		if cap(b.words) < n {
			b.words = make([]uint64, n, n+n/2)
		}
		w := b.words[:n]
		sw, tw := s.words()[si:si+n], t.words()[ti:ti+n]
		card := 0
		for i := range w {
			v := sw[i] & tw[i]
			w[i] = v
			card += bits.OnesCount64(v)
		}
		if card == 0 {
			return Set{}
		}
		off := s.off + ID(si)*64
		// Trim to the canonical form (no zero words at either end).
		for w[0] == 0 {
			w = w[1:]
			off += 64
		}
		for w[len(w)-1] == 0 {
			w = w[:len(w)-1]
		}
		return dense(w, off, card)
	case s.card == 0 && t.card == 0:
		a, c := s.ids, t.ids
		if a[len(a)-1] < c[0] || c[len(c)-1] < a[0] {
			return Set{}
		}
		out := b.ids[:0]
		i, j := 0, 0
		for i < len(a) && j < len(c) {
			switch {
			case a[i] < c[j]:
				i++
			case a[i] > c[j]:
				j++
			default:
				out = append(out, a[i])
				i++
				j++
			}
		}
		b.ids = out[:0]
		if len(out) == 0 {
			return Set{}
		}
		return Set{ids: out}
	default:
		// Mixed: walk the sparse side, probe the dense side.
		sp, d := s, t
		if sp.card != 0 {
			sp, d = t, s
		}
		out := b.ids[:0]
		for _, id := range sp.ids {
			if d.Contains(id) {
				out = append(out, id)
			}
		}
		b.ids = out[:0]
		if len(out) == 0 {
			return Set{}
		}
		return Set{ids: out}
	}
}

// IntersectLen returns |s ∩ t| without allocating.
func (s Set) IntersectLen(t Set) int {
	switch {
	case s.IsEmpty() || t.IsEmpty():
		return 0
	case s.card != 0 && t.card != 0:
		si, ti, n, ok := denseOverlap(s, t)
		if !ok {
			return 0
		}
		sw, tw := s.words()[si:si+n], t.words()[ti:ti+n]
		c := 0
		for i, w := range sw {
			c += bits.OnesCount64(w & tw[i])
		}
		return c
	case s.card == 0 && t.card == 0:
		a, b := s.ids, t.ids
		n := 0
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
		return n
	default:
		sp, d := s, t
		if sp.card != 0 {
			sp, d = t, s
		}
		n := 0
		for _, id := range sp.ids {
			if d.Contains(id) {
				n++
			}
		}
		return n
	}
}

// Intersects reports whether s ∩ t is non-empty, with early exit on the
// first common member. It never allocates.
func (s Set) Intersects(t Set) bool {
	switch {
	case s.IsEmpty() || t.IsEmpty():
		return false
	case s.card != 0 && t.card != 0:
		si, ti, n, ok := denseOverlap(s, t)
		if !ok {
			return false
		}
		sw, tw := s.words()[si:si+n], t.words()[ti:ti+n]
		for i, w := range sw {
			if w&tw[i] != 0 {
				return true
			}
		}
		return false
	case s.card == 0 && t.card == 0:
		a, b := s.ids, t.ids
		if a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
			return false
		}
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				return true
			}
		}
		return false
	default:
		sp, d := s, t
		if sp.card != 0 {
			sp, d = t, s
		}
		for _, id := range sp.ids {
			if d.Contains(id) {
				return true
			}
		}
		return false
	}
}

// IntersectWith replaces *s with s ∩ t in place, without allocating.
// The receiver's storage must be uniquely owned by the caller (e.g. a
// set built by Minus or Clone and never shared); the usual immutability
// guarantee does not hold across this call. t is not modified.
func (s *Set) IntersectWith(t Set) {
	switch {
	case s.IsEmpty():
		return
	case t.IsEmpty():
		*s = Set{}
	case s.card == 0:
		// Sparse receiver: filter in place (write index trails read).
		out := s.ids[:0]
		if t.card == 0 {
			i, j := 0, 0
			a, b := s.ids, t.ids
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					out = append(out, a[i])
					i++
					j++
				}
			}
		} else {
			for _, id := range s.ids {
				if t.Contains(id) {
					out = append(out, id)
				}
			}
		}
		s.ids = out
	case t.card != 0:
		// Dense receiver, dense argument: restrict to the overlap window
		// and AND word-wise.
		si, ti, n, ok := denseOverlap(*s, t)
		if !ok {
			*s = Set{}
			return
		}
		w, tw := s.words()[si:si+n], t.words()[ti:ti+n]
		card := 0
		for i := range w {
			w[i] &= tw[i]
			card += bits.OnesCount64(w[i])
		}
		s.finishInPlace(w, s.off+ID(si)*64, card)
	default:
		// Dense receiver, sparse argument: mask each word to the
		// argument's members in its id range. The word's exclusive end
		// is computed in uint64 — for the top 64-id block base+64 would
		// wrap to 0 in ID arithmetic.
		w := s.words()
		j := 0
		card := 0
		for wi := range w {
			base := s.off + ID(wi)*64
			var mask uint64
			for j < len(t.ids) && t.ids[j] < base {
				j++
			}
			for j < len(t.ids) && uint64(t.ids[j]) < uint64(base)+64 {
				mask |= 1 << (t.ids[j] - base)
				j++
			}
			w[wi] &= mask
			card += bits.OnesCount64(w[wi])
		}
		s.finishInPlace(w, s.off, card)
	}
}

// finishInPlace re-establishes the dense invariants (trimmed ends,
// cached cardinality) after an in-place mutation left w possibly ragged.
func (s *Set) finishInPlace(w []uint64, off ID, card int) {
	if card == 0 {
		*s = Set{}
		return
	}
	for w[0] == 0 {
		w = w[1:]
		off += 64
	}
	for w[len(w)-1] == 0 {
		w = w[:len(w)-1]
	}
	*s = dense(w, off, card)
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	if s.card == 0 && t.card == 0 {
		a, b := s.ids, t.ids
		out := make([]ID, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				out = append(out, a[i])
				i++
			case a[i] > b[j]:
				out = append(out, b[j])
				j++
			default:
				out = append(out, a[i])
				i++
				j++
			}
		}
		out = append(out, a[i:]...)
		out = append(out, b[j:]...)
		return Compact(Set{ids: out})
	}
	// At least one side is dense: merge via cursors.
	out := make([]ID, 0, s.Len()+t.Len())
	sc, tc := newCursor(s), newCursor(t)
	a, okA := sc.next()
	b, okB := tc.next()
	for okA || okB {
		switch {
		case !okB || (okA && a < b):
			out = append(out, a)
			a, okA = sc.next()
		case !okA || b < a:
			out = append(out, b)
			b, okB = tc.next()
		default:
			out = append(out, a)
			a, okA = sc.next()
			b, okB = tc.next()
		}
	}
	return Compact(Set{ids: out})
}

// Minus returns s \ t. The caller owns the result: every path returns
// freshly-allocated (or empty) storage, never an alias of s — callers
// like State.fold retain the difference in long-lived state, and an
// aliased fast-path result would couple that state to the producer's
// reuse of s (the PR 5 bug class).
func (s Set) Minus(t Set) Set { return s.MinusInto(t, Set{}) }

// MinusInto returns s \ t in the representation Compact picks for it,
// built in spare's storage when that has room and in one exactly sized
// allocation otherwise. spare's members do not matter, but its storage
// must be uniquely owned by the caller — typically a dead result of an
// earlier Minus or MinusInto — and it must not be used afterwards: the
// result may overwrite it. Like Minus, the result never aliases s or t.
func (s Set) MinusInto(t Set, spare Set) Set {
	// One cursor pass counts the survivors and finds their span, which
	// decide the representation, and buffers the first minusStack of
	// them on the stack. When that is all of them they are written from
	// the buffer; otherwise a second pass writes them.
	var stack [minusStack]ID
	buf := stack[:0]
	n, first, last := 0, ID(0), ID(0)
	c := newMinusCursor(s, t)
	for id, ok := c.next(); ok; id, ok = c.next() {
		if n == 0 {
			first = id
		}
		if n < minusStack {
			buf = append(buf, id)
		}
		last, n = id, n+1
	}
	if n == 0 {
		return Set{}
	}
	if nwords := int(last/64-first/64) + 1; denseWorthwhile(n, nwords) {
		// Only a dense spare's storage is aligned for words; a sparse
		// result may take either form's.
		var w []uint64
		if spare.card != 0 && cap(spare.ids)/2 >= nwords {
			w = spare.words()[:nwords]
			clear(w)
		} else {
			w = make([]uint64, nwords)
		}
		if n <= minusStack {
			return fillDense(buf, w)
		}
		off := first &^ 63
		c = newMinusCursor(s, t)
		for id, ok := c.next(); ok; id, ok = c.next() {
			w[(id-off)/64] |= 1 << ((id - off) % 64)
		}
		return dense(w, off, n)
	}
	ids := spare.ids[:0]
	if cap(ids) < n {
		ids = make([]ID, 0, n)
	}
	if n <= minusStack {
		return Set{ids: append(ids, buf...)}
	}
	c = newMinusCursor(s, t)
	for id, ok := c.next(); ok; id, ok = c.next() {
		ids = append(ids, id)
	}
	return Set{ids: ids}
}

// minusStack is the most survivors MinusInto buffers on the stack, in
// 128 bytes of its frame, to write them without a second pass.
const minusStack = 32

// minusCursor yields the members of s that t lacks, in increasing order:
// a merge against a sparse t, a bit probe into a dense one.
type minusCursor struct {
	s cursor
	t Set
	j int // next unread id of a sparse t
}

func newMinusCursor(s, t Set) minusCursor { return minusCursor{s: newCursor(s), t: t} }

func (m *minusCursor) next() (ID, bool) {
	for {
		id, ok := m.s.next()
		if !ok {
			return 0, false
		}
		if m.t.card != 0 {
			if !m.t.Contains(id) {
				return id, true
			}
			continue
		}
		for m.j < len(m.t.ids) && m.t.ids[m.j] < id {
			m.j++
		}
		if m.j == len(m.t.ids) || m.t.ids[m.j] != id {
			return id, true
		}
	}
}

// SubsetOf reports whether s ⊆ t. It never allocates.
func (s Set) SubsetOf(t Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	switch {
	case s.IsEmpty():
		return true
	case s.card != 0 && t.card != 0:
		si, ti, n, ok := denseOverlap(s, t)
		sw := s.words()
		if !ok || si != 0 || n != len(sw) {
			return false // part of s's range lies outside t's
		}
		tw := t.words()[ti : ti+n]
		for i, w := range sw {
			if w&^tw[i] != 0 {
				return false
			}
		}
		return true
	case s.card == 0 && t.card != 0:
		for _, id := range s.ids {
			if !t.Contains(id) {
				return false
			}
		}
		return true
	case s.card == 0:
		// Both sparse: a merge that stops at the first member of s
		// that t lacks.
		b := t.ids
		j := 0
		for _, id := range s.ids {
			for j < len(b) && b[j] < id {
				j++
			}
			if j == len(b) || b[j] != id {
				return false
			}
			j++
		}
		return true
	default:
		return s.IntersectLen(t) == s.Len()
	}
}

// ProperSubsetOf reports whether s ⊂ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.Len() < t.Len() && s.SubsetOf(t)
}

// Key returns a compact string usable as a map key. Two sets have the
// same key iff they are Equal, regardless of representation. The
// encoding is a raw little-endian byte string, not human readable; use
// String for display. Key allocates — hot paths intern sets in an
// Interner and compare handles instead.
func (s Set) Key() string {
	if s.IsEmpty() {
		return ""
	}
	buf := make([]byte, 0, s.Len()*4)
	c := newCursor(s)
	for id, ok := c.next(); ok; id, ok = c.next() {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashID folds one id into an FNV-1a stream, little-endian byte-wise, so
// the hash matches across representations.
func hashID(h uint64, id ID) uint64 {
	h = (h ^ uint64(byte(id))) * fnvPrime64
	h = (h ^ uint64(byte(id>>8))) * fnvPrime64
	h = (h ^ uint64(byte(id>>16))) * fnvPrime64
	h = (h ^ uint64(byte(id>>24))) * fnvPrime64
	return h
}

// Hash returns a 64-bit FNV-1a hash of the set contents, identical for
// both representations. It never allocates.
func (s Set) Hash() uint64 {
	h := uint64(fnvOffset64)
	if s.card == 0 {
		for _, id := range s.ids {
			h = hashID(h, id)
		}
		return h
	}
	for wi, w := range s.words() {
		base := s.off + ID(wi)*64
		for w != 0 {
			h = hashID(h, base+ID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return h
}

// Sig returns the set's 64-bit signature: bit id mod 64 for every
// member, so two sets that share a member share a signature bit and two
// whose signatures are disjoint are disjoint. The empty set's signature
// is 0. It is the same for both representations; a dense set's is the
// OR of its words, because off is a multiple of 64.
func (s Set) Sig() uint64 {
	var sig uint64
	if s.card != 0 {
		for _, w := range s.words() {
			sig |= w
		}
		return sig
	}
	for _, id := range s.ids {
		sig |= 1 << (id % 64)
	}
	return sig
}

// String renders the set as "{1 2 3}" for debugging and traces.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	c := newCursor(s)
	for id, ok := c.next(); ok; id, ok = c.next() {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}
