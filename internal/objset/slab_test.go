package objset

import (
	"math/rand"
	"testing"
)

// TestSlabFromSorted builds sparse and dense sets in one slab and
// requires each to be the set Compact builds, in the same
// representation, with storage that ends where the set does and that
// is not the caller's.
func TestSlabFromSorted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var sl Slab
	var sets, want []Set
	for i := 0; i < 400; i++ {
		span := 16 + r.Intn(400)
		var ids []ID
		for id := 0; id < span; id++ {
			if r.Intn(1+i%5) == 0 {
				ids = append(ids, ID(1000*i+id))
			}
		}
		s := sl.FromSorted(ids)
		c := Compact(FromSorted(append([]ID(nil), ids...)))
		if !s.Equal(c) || (s.card == 0) != (c.card == 0) {
			t.Fatalf("slab set %s (dense %v), Compact %s (dense %v)", s, s.card != 0, c, c.card != 0)
		}
		if cap(s.ids) != len(s.ids) {
			t.Fatalf("set %s (dense %v): storage %d/%d (len/cap)", s, s.card != 0, len(s.ids), cap(s.ids))
		}
		clear(ids)
		sets, want = append(sets, s), append(want, c)
	}
	// Shrinking a set in place, as a state's blockers are, leaves the
	// sets beside it as they were.
	for i := range sets {
		sets[i].IntersectWith(New(ID(1000 * i)))
	}
	for i, s := range sets {
		if !s.Equal(want[i].Intersect(New(ID(1000 * i)))) {
			t.Fatalf("set %d is %s after its neighbours shrank", i, s)
		}
	}
	if !sl.FromSorted(nil).IsEmpty() {
		t.Error("no ids built a non-empty set")
	}
}

// TestSlabFromSortedPanicsUnsorted keeps FromSorted's guard.
func TestSlabFromSortedPanicsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted ids accepted")
		}
	}()
	var sl Slab
	sl.FromSorted([]ID{3, 3})
}

// TestInternerReserve requires a reserved interner to take n sets
// without an allocation, and to hand out the handles an unreserved one
// would.
func TestInternerReserve(t *testing.T) {
	const n = 3000
	sets := make([]Set, n)
	for i := range sets {
		sets[i] = New(ID(i), ID(i+1), ID(2*n+i))
	}
	plain, reserved := NewInterner(), NewInterner()
	plain.Intern(sets[0])
	reserved.Intern(sets[0])
	reserved.Reserve(n)
	i := 1
	if allocs := testing.AllocsPerRun(n-2, func() {
		reserved.Adopt(sets[i])
		i++
	}); allocs != 0 {
		t.Errorf("a reserved interner allocates %.1f times per set", allocs)
	}
	for k, s := range sets[1:i] {
		h, _ := plain.Intern(s)
		if g, ok := reserved.Lookup(s); !ok || g != h {
			t.Fatalf("set %d: reserved handle %d (%v), unreserved %d", k+1, g, ok, h)
		}
	}
}
