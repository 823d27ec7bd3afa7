package objset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestSetSize pins Set at 32 bytes: one slice header for both forms,
// the dense offset and the cardinality. Every state, interned handle,
// match and delivery holds one or two sets by value.
func TestSetSize(t *testing.T) {
	if n := unsafe.Sizeof(Set{}); n != 32 {
		t.Fatalf("Set is %d bytes, want 32", n)
	}
}

func TestNewDedupesAndSorts(t *testing.T) {
	s := New(5, 1, 3, 1, 5, 2)
	want := []ID{1, 2, 3, 5}
	got := s.IDs()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEmptySet(t *testing.T) {
	if !Empty.IsEmpty() {
		t.Error("Empty.IsEmpty() = false")
	}
	if Empty.Len() != 0 {
		t.Errorf("Empty.Len() = %d", Empty.Len())
	}
	if Empty.Key() != "" {
		t.Errorf("Empty.Key() = %q", Empty.Key())
	}
	if !New().Equal(Empty) {
		t.Error("New() != Empty")
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSorted accepted unsorted input")
		}
	}()
	FromSorted([]ID{3, 1})
}

func TestFromSortedPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSorted accepted duplicate input")
		}
	}()
	FromSorted([]ID{1, 1})
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6)
	for _, id := range []ID{2, 4, 6} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	for _, id := range []ID{0, 1, 3, 5, 7} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true", id)
		}
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want Set
	}{
		{New(1, 2, 3), New(2, 3, 4), New(2, 3)},
		{New(1, 2), New(3, 4), Empty},
		{New(), New(1), Empty},
		{New(1, 2, 3), New(1, 2, 3), New(1, 2, 3)},
		{New(1, 5, 9), New(5), New(5)},
		{New(10, 20), New(1, 2), Empty}, // disjoint ranges fast path
	}
	for _, tt := range tests {
		got := tt.a.Intersect(tt.b)
		if !got.Equal(tt.want) {
			t.Errorf("%v ∩ %v = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if n := tt.a.IntersectLen(tt.b); n != tt.want.Len() {
			t.Errorf("IntersectLen(%v, %v) = %d, want %d", tt.a, tt.b, n, tt.want.Len())
		}
	}
}

func TestUnionMinus(t *testing.T) {
	a, b := New(1, 2, 3), New(3, 4)
	if got := a.Union(b); !got.Equal(New(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(New(1, 2)) {
		t.Errorf("Minus = %v", got)
	}
	if got := Empty.Union(a); !got.Equal(a) {
		t.Errorf("Empty ∪ a = %v", got)
	}
	if got := a.Minus(Empty); !got.Equal(a) {
		t.Errorf("a \\ Empty = %v", got)
	}
}

func TestSubset(t *testing.T) {
	a, b := New(1, 2), New(1, 2, 3)
	if !a.SubsetOf(b) || !a.ProperSubsetOf(b) {
		t.Error("subset checks failed")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a should be false")
	}
	if a.ProperSubsetOf(a) {
		t.Error("a ⊂ a should be false")
	}
	if !a.SubsetOf(a) {
		t.Error("a ⊆ a should be true")
	}
	if !Empty.SubsetOf(a) {
		t.Error("∅ ⊆ a should be true")
	}
}

func TestKeyUniqueness(t *testing.T) {
	a, b := New(1, 2), New(1, 3)
	if a.Key() == b.Key() {
		t.Error("distinct sets share a key")
	}
	if a.Key() != New(2, 1).Key() {
		t.Error("equal sets have different keys")
	}
	// Keys must distinguish sets whose concatenated ids collide when
	// naively stringified, e.g. {1,23} vs {12,3}.
	if New(1, 23).Key() == New(12, 3).Key() {
		t.Error("key collision between {1,23} and {12,3}")
	}
}

func TestString(t *testing.T) {
	if got := New(3, 1).String(); got != "{1 3}" {
		t.Errorf("String() = %q", got)
	}
	if got := Empty.String(); got != "{}" {
		t.Errorf("Empty.String() = %q", got)
	}
}

// reference implementations over map[ID]bool for property testing.

func toMap(s Set) map[ID]bool {
	m := make(map[ID]bool, s.Len())
	for _, id := range s.IDs() {
		m[id] = true
	}
	return m
}

func fromMap(m map[ID]bool) Set {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return New(ids...)
}

func randSet(r *rand.Rand) Set {
	n := r.Intn(12)
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(r.Intn(20))
	}
	return New(ids...)
}

func TestPropertyAgainstMapModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSet(r), randSet(r)
		ma, mb := toMap(a), toMap(b)

		inter := map[ID]bool{}
		for id := range ma {
			if mb[id] {
				inter[id] = true
			}
		}
		union := map[ID]bool{}
		for id := range ma {
			union[id] = true
		}
		for id := range mb {
			union[id] = true
		}
		minus := map[ID]bool{}
		for id := range ma {
			if !mb[id] {
				minus[id] = true
			}
		}

		if !a.Intersect(b).Equal(fromMap(inter)) {
			return false
		}
		if !a.Union(b).Equal(fromMap(union)) {
			return false
		}
		if !a.Minus(b).Equal(fromMap(minus)) {
			return false
		}
		if a.IntersectLen(b) != len(inter) {
			return false
		}
		sub := true
		for id := range ma {
			if !mb[id] {
				sub = false
			}
		}
		if a.SubsetOf(b) != sub {
			return false
		}
		if (a.Key() == b.Key()) != a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyAlgebraicLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randSet(r), randSet(r), randSet(r)
		// Commutativity, associativity, idempotence, absorption.
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Intersect(c).Equal(a.Intersect(b.Intersect(c))) {
			return false
		}
		if !a.Intersect(a).Equal(a) || !a.Union(a).Equal(a) {
			return false
		}
		if !a.Intersect(a.Union(b)).Equal(a) {
			return false
		}
		if !a.Union(a.Intersect(b)).Equal(a) {
			return false
		}
		// Intersection is a subset of both operands.
		i := a.Intersect(b)
		return i.SubsetOf(a) && i.SubsetOf(b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestIDsAreSortedInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		s := randSet(r).Intersect(randSet(r)).Union(randSet(r)).Minus(randSet(r))
		ids := s.IDs()
		if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
			t.Fatalf("unsorted result: %v", ids)
		}
		for j := 1; j < len(ids); j++ {
			if ids[j] == ids[j-1] {
				t.Fatalf("duplicate in result: %v", ids)
			}
		}
	}
}

func TestHashDistinguishesSets(t *testing.T) {
	seen := map[uint64]Set{}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		s := randSet(r)
		h := s.Hash()
		if prev, ok := seen[h]; ok && !prev.Equal(s) {
			// FNV over ≤12 small ids should essentially never collide.
			t.Fatalf("hash collision: %v vs %v", prev, s)
		}
		seen[h] = s
	}
}

func BenchmarkIntersect(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ids := make([]ID, 64)
	for i := range ids {
		ids[i] = ID(r.Intn(1000))
	}
	a := New(ids...)
	for i := range ids {
		ids[i] = ID(r.Intn(1000))
	}
	c := New(ids...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Intersect(c)
	}
}

// --- representation-agreement and allocation-discipline tests ---

// forceDense returns s as a bitmap regardless of the density heuristic;
// forceSparse returns it as a sorted slice. Together they let every
// property below be checked on all four representation pairings.
func forceDense(s Set) Set {
	if s.IsEmpty() {
		return s
	}
	ids := s.IDs()
	off := ids[0] &^ 63
	words := make([]uint64, ids[len(ids)-1]/64-ids[0]/64+1)
	for _, id := range ids {
		words[(id-off)/64] |= 1 << ((id - off) % 64)
	}
	return dense(words, off, len(ids))
}

func forceSparse(s Set) Set {
	if s.IsEmpty() {
		return s
	}
	return Set{ids: s.IDs()}
}

// reprs returns s in both representations.
func reprs(s Set) [2]Set { return [2]Set{forceSparse(s), forceDense(s)} }

// randWideSet mixes dense clusters with far outliers so both the
// heuristic's dense and sparse choices, aligned and misaligned offsets,
// and disjoint ranges all occur.
func randWideSet(r *rand.Rand) Set {
	n := r.Intn(40)
	ids := make([]ID, 0, n)
	base := ID(r.Intn(300))
	for i := 0; i < n; i++ {
		if r.Intn(8) == 0 {
			ids = append(ids, ID(r.Intn(4000)))
		} else {
			ids = append(ids, base+ID(r.Intn(64)))
		}
	}
	return New(ids...)
}

// TestRepresentationsAgree checks that every operation returns identical
// results for all four pairings of sparse and dense operands, and that
// Equal/Hash/Compare/Key/Len are representation-blind.
func TestRepresentationsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var scratch Scratch
	for trial := 0; trial < 3000; trial++ {
		a, b := randWideSet(r), randWideSet(r)
		wantInter := forceSparse(a).Intersect(forceSparse(b))
		wantUnion := forceSparse(a).Union(forceSparse(b))
		wantMinus := forceSparse(a).Minus(forceSparse(b))
		for _, av := range reprs(a) {
			if av.Len() != a.Len() || av.Hash() != a.Hash() || av.Key() != a.Key() {
				t.Fatalf("representation changed Len/Hash/Key of %v", a)
			}
			for _, bv := range reprs(b) {
				if got := av.Intersect(bv); !got.Equal(wantInter) {
					t.Fatalf("%v ∩ %v = %v, want %v", av, bv, got, wantInter)
				}
				if got := av.IntersectInto(bv, &scratch); !got.Equal(wantInter) {
					t.Fatalf("IntersectInto(%v, %v) = %v, want %v", av, bv, got, wantInter)
				}
				if got := av.Union(bv); !got.Equal(wantUnion) {
					t.Fatalf("%v ∪ %v = %v, want %v", av, bv, got, wantUnion)
				}
				if got := av.Minus(bv); !got.Equal(wantMinus) {
					t.Fatalf("%v \\ %v = %v, want %v", av, bv, got, wantMinus)
				}
				if got := av.IntersectLen(bv); got != wantInter.Len() {
					t.Fatalf("IntersectLen(%v, %v) = %d, want %d", av, bv, got, wantInter.Len())
				}
				if got := av.Intersects(bv); got != !wantInter.IsEmpty() {
					t.Fatalf("Intersects(%v, %v) = %v", av, bv, got)
				}
				if got := av.SubsetOf(bv); got != (wantInter.Len() == a.Len()) {
					t.Fatalf("SubsetOf(%v, %v) = %v", av, bv, got)
				}
				if got := av.Equal(bv); got != a.Equal(b) {
					t.Fatalf("Equal(%v, %v) = %v", av, bv, got)
				}
				if got := Compare(av, bv); got != Compare(forceSparse(a), forceSparse(b)) {
					t.Fatalf("Compare(%v, %v) = %d", av, bv, got)
				}
				// In-place intersection on an owned copy.
				own := av.Clone()
				own.IntersectWith(bv)
				if !own.Equal(wantInter) {
					t.Fatalf("IntersectWith(%v, %v) = %v, want %v", av, bv, own, wantInter)
				}
			}
			// Member iteration.
			var ids []ID
			av.Range(func(id ID) bool { ids = append(ids, id); return true })
			if len(ids) != a.Len() {
				t.Fatalf("Range of %v yielded %v", av, ids)
			}
			for i, id := range av.IDs() {
				if ids[i] != id {
					t.Fatalf("Range/IDs disagree on %v: %v vs %v", av, ids, av.IDs())
				}
				if !av.Contains(id) {
					t.Fatalf("Contains(%d) false on %v", id, av)
				}
			}
			if got := av.AppendTo(nil); len(got) != a.Len() {
				t.Fatalf("AppendTo of %v = %v", av, got)
			}
			if cl := av.Clone(); !cl.Equal(a) {
				t.Fatalf("Clone(%v) = %v", av, cl)
			}
		}
	}
}

// TestSigIsMemberBits checks that Sig is the OR of bit id mod 64 over the
// members in both representations, so sets that meet share a signature
// bit: the soundness SSG's traversal relies on when it skips a set
// operation on disjoint signatures.
func TestSigIsMemberBits(t *testing.T) {
	if got := (Set{}).Sig(); got != 0 {
		t.Fatalf("empty set Sig = %#x, want 0", got)
	}
	r := rand.New(rand.NewSource(64))
	for trial := 0; trial < 3000; trial++ {
		a, b := randWideSet(r), randWideSet(r)
		var want uint64
		a.Range(func(id ID) bool { want |= 1 << (id % 64); return true })
		for _, av := range reprs(a) {
			if got := av.Sig(); got != want {
				t.Fatalf("Sig(%v) = %#x, want %#x", av, got, want)
			}
		}
		if a.Intersects(b) && a.Sig()&b.Sig() == 0 {
			t.Fatalf("%v and %v meet but their signatures %#x and %#x do not", a, b, a.Sig(), b.Sig())
		}
	}
}

// TestCompareIsTotalOrder checks antisymmetry, transitivity and
// consistency with Equal on random triples.
func TestCompareIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4000; trial++ {
		a, b, c := randWideSet(r), randWideSet(r), randWideSet(r)
		if (Compare(a, b) == 0) != a.Equal(b) {
			t.Fatalf("Compare zero disagrees with Equal: %v vs %v", a, b)
		}
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("Compare not antisymmetric: %v vs %v", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("Compare not transitive: %v %v %v", a, b, c)
		}
	}
	// Prefix sorts first; byte-wise key order would invert this pair.
	if Compare(New(1), New(1, 2)) >= 0 {
		t.Error("prefix does not sort first")
	}
	if Compare(New(1), New(256)) >= 0 {
		t.Error("id order violated for multi-byte ids")
	}
}

func TestCompactRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		s := randWideSet(r)
		c := Compact(s)
		if !c.Equal(s) || c.Len() != s.Len() || c.Hash() != s.Hash() {
			t.Fatalf("Compact changed contents: %v → %v", s, c)
		}
	}
	// Dense window-local ids must actually go dense.
	ids := make([]ID, 64)
	for i := range ids {
		ids[i] = ID(i * 2)
	}
	if d := Compact(New(ids...)); d.card == 0 {
		t.Error("dense window-local set stayed sparse")
	}
	// Wide-spread ids must stay sparse.
	if s := Compact(New(1, 1000, 100000, 1000000)); s.card != 0 {
		t.Error("wide-spread set went dense")
	}
}

// TestAlgebraSteadyStateAllocFree pins the zero-allocation contract of
// the hot-path operations on warm scratch buffers, for both
// representations.
func TestAlgebraSteadyStateAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var pairs [][2]Set
	for i := 0; i < 32; i++ {
		a, b := randWideSet(r), randWideSet(r)
		pairs = append(pairs, [2]Set{a, b}, [2]Set{forceDense(a), forceDense(b)},
			[2]Set{forceSparse(a), forceDense(b)})
	}
	var buf Scratch
	for _, p := range pairs { // warm the scratch
		p[0].IntersectInto(p[1], &buf)
	}
	sink := 0
	if n := testing.AllocsPerRun(50, func() {
		for _, p := range pairs {
			s := p[0].IntersectInto(p[1], &buf)
			sink += s.Len()
			sink += p[0].IntersectLen(p[1])
			if p[0].SubsetOf(p[1]) {
				sink++
			}
			if p[0].Intersects(p[1]) {
				sink++
			}
			sink += int(p[0].Hash() & 1)
			sink += Compare(p[0], p[1])
		}
	}); n != 0 {
		t.Errorf("steady-state algebra allocates %.1f per run of %d pairs", n, len(pairs))
	}
	if sink == -1 {
		t.Log("impossible")
	}
}

// TestTopOfIDSpace pins the uint32 boundary: a dense set whose ids
// reach the last 64-id block has an exclusive range end of exactly
// 2^32, which must not wrap to 0 and make the set disjoint from
// everything (including itself).
func TestTopOfIDSpace(t *testing.T) {
	ids := make([]ID, 64)
	for i := range ids {
		ids[i] = ^ID(0) - ID(63-i) // 4294967232..4294967295
	}
	s := New(ids...)
	if s.card == 0 {
		t.Fatal("top-block set did not go dense")
	}
	if !s.SubsetOf(s) || s.Intersect(s).Len() != 64 || !s.Intersects(s) {
		t.Fatalf("top-block set disjoint from itself: ∩=%d", s.Intersect(s).Len())
	}
	sub := New(ids[:8]...)
	for _, sv := range reprs(s) {
		for _, subv := range reprs(sub) {
			if subv.IntersectLen(sv) != 8 || !subv.SubsetOf(sv) {
				t.Fatalf("top-block subset ops wrong: len=%d", subv.IntersectLen(sv))
			}
			own := sv.Clone()
			own.IntersectWith(subv)
			if !own.Equal(sub) {
				t.Fatalf("top-block IntersectWith = %v", own)
			}
		}
	}
}

// TestMinusResultOwned pins the ownership contract of Minus: every
// path, including the empty-operand fast paths, returns storage the
// caller owns. State.fold retains the difference in long-lived state,
// so an aliased fast-path result would couple that state to the
// producer's reuse of the receiver (the window-aliasing bug class — a
// static check first found the latent path).
func TestMinusResultOwned(t *testing.T) {
	s := New(1, 2, 3)
	r := s.Minus(Empty) // fast path: empty subtrahend
	// Shrink s in place; an aliased r would see its backing rewritten.
	s.IntersectWith(New(2))
	if r.Len() != 3 || !r.Contains(1) || !r.Contains(3) {
		t.Fatalf("Minus result aliased receiver storage: %v", r)
	}
	if got := Empty.Minus(New(1)); !got.IsEmpty() {
		t.Fatalf("Empty \\ x = %v, want empty", got)
	}
}

// TestMinusIntoMatchesCompact: on every representation pairing and with
// spare storage of either form, too small or roomy, MinusInto returns
// s ∖ t in exactly the representation Compact picks for the difference,
// in storage that aliases neither operand.
func TestMinusIntoMatchesCompact(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	spares := func() []Set {
		return []Set{
			{},
			{ids: make([]ID, 1, 2)},
			{ids: make([]ID, 0, 64)},
			dense(make([]uint64, 1), 0, 1),
			dense(make([]uint64, 3, 80), 64, 2),
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randWideSet(r), randWideSet(r)
		var ref []ID
		for _, id := range a.IDs() {
			if !b.Contains(id) {
				ref = append(ref, id)
			}
		}
		want := Compact(FromSorted(ref))
		for _, av := range reprs(a) {
			for _, bv := range reprs(b) {
				for k, spare := range spares() {
					if spare.card != 0 {
						w := spare.words()
						for j := range w {
							w[j] = ^uint64(0) // stale members must not leak
						}
					}
					got := av.MinusInto(bv, spare)
					if !got.Equal(want) || (got.card != 0) != (want.card != 0) || (got.ids == nil) != (want.ids == nil) {
						t.Fatalf("%v \\ %v into spare %d = %#v, want %#v", av, bv, k, got, want)
					}
					if got.Len() > 0 && (aliases(got, av) || aliases(got, bv)) {
						t.Fatalf("%v \\ %v aliases an operand", av, bv)
					}
				}
			}
		}
	}
}

// aliases reports whether s's storage begins inside t's.
func aliases(s, t Set) bool {
	for i := range t.ids {
		if len(s.ids) > 0 && &s.ids[0] == &t.ids[i] {
			return true
		}
	}
	return false
}

// TestMinusIntoReusesSpare: a spare of the difference's form with room
// for it takes the whole difference, without an allocation.
func TestMinusIntoReusesSpare(t *testing.T) {
	s, u := New(1, 5, 9, 200), New(5)
	sparse := Set{ids: make([]ID, 0, 8)}
	if n := testing.AllocsPerRun(50, func() { sparse = s.MinusInto(u, sparse) }); n != 0 || sparse.ids == nil {
		t.Errorf("sparse difference into a roomy spare: %.0f allocations, %#v", n, sparse)
	}
	var ids []ID
	for id := ID(0); id < 40; id++ {
		ids = append(ids, id)
	}
	d, v := New(ids...), New(3, 4)
	roomy := dense(make([]uint64, 0, 2), 0, 1)
	if n := testing.AllocsPerRun(50, func() { roomy = d.MinusInto(v, roomy) }); n != 0 || roomy.card == 0 {
		t.Errorf("dense difference into a roomy spare: %.0f allocations, %#v", n, roomy)
	}
}
