package objset

import (
	"math/rand"
	"testing"
)

func TestInternerBasic(t *testing.T) {
	in := NewInterner()
	a := New(1, 2, 3)
	h1, created := in.Intern(a)
	if !created {
		t.Fatal("first intern not created")
	}
	// Same contents, different representation and storage: same handle.
	h2, created := in.Intern(Compact(New(3, 2, 1)))
	if created || h2 != h1 {
		t.Fatalf("re-intern: handle %d created=%v, want %d false", h2, created, h1)
	}
	if got, ok := in.Lookup(New(1, 2, 3)); !ok || got != h1 {
		t.Fatalf("Lookup = %d %v", got, ok)
	}
	if !in.Of(h1).Equal(a) {
		t.Fatalf("Of(%d) = %v", h1, in.Of(h1))
	}
	if _, ok := in.Lookup(New(1, 2)); ok {
		t.Fatal("lookup of never-interned set succeeded")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d", in.Len())
	}
}

func TestInternerReleaseRecyclesHandles(t *testing.T) {
	in := NewInterner()
	h, _ := in.Intern(New(1, 2))
	in.Release(h)
	if in.Len() != 0 {
		t.Fatalf("Len after release = %d", in.Len())
	}
	if _, ok := in.Lookup(New(1, 2)); ok {
		t.Fatal("released set still found")
	}
	h2, created := in.Intern(New(7, 8))
	if !created || h2 != h {
		t.Fatalf("handle not recycled: got %d, want %d", h2, h)
	}
	if !in.Of(h2).Equal(New(7, 8)) {
		t.Fatalf("recycled handle holds %v", in.Of(h2))
	}
}

// TestInternerChurn drives random intern/release cycles against a map
// model, across table growth and heavy tombstone turnover.
func TestInternerChurn(t *testing.T) {
	in := NewInterner()
	r := rand.New(rand.NewSource(3))
	model := map[string]Handle{}
	for step := 0; step < 20000; step++ {
		s := randSet(r)
		if s.IsEmpty() {
			continue
		}
		k := s.Key()
		if h, ok := model[k]; ok && r.Intn(2) == 0 {
			in.Release(h)
			delete(model, k)
			continue
		}
		h, created := in.Intern(s)
		if _, ok := model[k]; ok == created {
			t.Fatalf("step %d: created=%v but model has=%v for %v", step, created, ok, s)
		}
		if prev, ok := model[k]; ok && prev != h {
			t.Fatalf("step %d: handle changed %d → %d for %v", step, prev, h, s)
		}
		model[k] = h
		if !in.Of(h).Equal(s) {
			t.Fatalf("step %d: Of(%d) = %v, want %v", step, h, in.Of(h), s)
		}
	}
	if in.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", in.Len(), len(model))
	}
	for k, h := range model {
		got, ok := in.Lookup(fromKeyString(k))
		if !ok || got != h {
			t.Fatalf("final lookup of %q: %d %v, want %d", k, got, ok, h)
		}
	}
}

func fromKeyString(key string) Set {
	ids := make([]ID, 0, len(key)/4)
	for i := 0; i+3 < len(key); i += 4 {
		ids = append(ids, ID(key[i])|ID(key[i+1])<<8|ID(key[i+2])<<16|ID(key[i+3])<<24)
	}
	return New(ids...)
}

func TestInternEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interning the empty set did not panic")
		}
	}()
	NewInterner().Intern(Empty)
}

// TestInternDetachesCallerStorage is Intern's hostile caller: the set
// is built over a slice the caller keeps (the shape of a Scratch result
// or a decoder's buffer), and the caller overwrites the slice once
// Intern returns. The handle's set must not change: Intern retains an
// owned copy, never the caller's storage.
func TestInternDetachesCallerStorage(t *testing.T) {
	in := NewInterner()
	buf := []ID{2, 3, 5, 7}
	h, created := in.Intern(FromSorted(buf))
	if !created {
		t.Fatal("first intern not created")
	}
	for i := range buf {
		buf[i] = ID(100 + i)
	}
	want := New(2, 3, 5, 7)
	if got := in.Of(h); !got.Equal(want) {
		t.Fatalf("Of(%d) = %v after the caller reused its slice, want %v", h, got, want)
	}
	if got, ok := in.Lookup(want); !ok || got != h {
		t.Fatalf("Lookup(%v) = %d %v, want %d true", want, got, ok, h)
	}
}

// TestAdoptKeepsCallerStorage states the other side of the contract, as
// Adopt's doc gives it: an adopted set is interned as handed over, so
// the interner holds the caller's storage, not a copy of it.
func TestAdoptKeepsCallerStorage(t *testing.T) {
	in := NewInterner()
	buf := []ID{2, 3, 5, 7}
	h, created := in.Adopt(FromSorted(buf))
	if !created {
		t.Fatal("first adopt not created")
	}
	if got := in.Of(h); len(got.ids) == 0 || &got.ids[0] != &buf[0] {
		t.Fatalf("Of(%d) = %v does not share the adopted slice", h, got)
	}
}

// TestInternerSteadyStateAllocFree pins the zero-allocation contract of
// the hot operations: lookups and intern hits never allocate, and a
// release/re-intern cycle of an identical set reuses the freed entry's
// probe path (the Clone on insert is the only allocation).
func TestInternerSteadyStateAllocFree(t *testing.T) {
	in := NewInterner()
	sets := make([]Set, 64)
	for i := range sets {
		sets[i] = New(ID(i), ID(i+100), ID(i+200))
		in.Intern(sets[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range sets {
			if _, ok := in.Lookup(s); !ok {
				t.Fatal("lost set")
			}
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %.1f per run of 64", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range sets {
			if _, created := in.Intern(s); created {
				t.Fatal("hit became create")
			}
		}
	}); n != 0 {
		t.Errorf("Intern hit allocates %.1f per run of 64", n)
	}
}

// TestInternerReleaseShiftsProbeRuns interns sets that all share one
// home slot, and others whose home slots lie inside that probe run,
// then releases them in random orders: every set still interned must
// be found after each release, none released may be, and the table
// must stay at its size, with no tombstones to purge.
func TestInternerReleaseShiftsProbeRuns(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 50; trial++ {
		in := NewInterner()
		in.Reserve(64)
		size := len(in.slots)
		var sets []Set
		for id := ID(1); len(sets) < 30; id++ {
			s := New(id)
			if home := uint32(s.Hash()) & in.mask; home < 4 || home > uint32(size)-3 {
				sets = append(sets, s) // clustered at the wrap-around
			}
		}
		handles := make([]Handle, len(sets))
		for i, s := range sets {
			handles[i], _ = in.Intern(s)
		}
		for _, i := range r.Perm(len(sets)) {
			in.Release(handles[i])
			sets[i] = Set{}
			for j, s := range sets {
				if s.IsEmpty() {
					continue
				}
				if h, ok := in.Lookup(s); !ok || h != handles[j] {
					t.Fatalf("trial %d: lost %v after a release", trial, s)
				}
			}
		}
		if in.Len() != 0 || len(in.slots) != size {
			t.Fatalf("trial %d: %d left, %d slots, want 0 and %d", trial, in.Len(), len(in.slots), size)
		}
		for _, sl := range in.slots {
			if sl.ref != 0 {
				t.Fatalf("trial %d: slot %v left behind", trial, sl)
			}
		}
	}
}

// TestInternerChurnAllocFree adopts and releases sets at a steady live
// count: with no tombstones there is nothing to purge, so once the
// tables have grown a cycle allocates nothing.
func TestInternerChurnAllocFree(t *testing.T) {
	in := NewInterner()
	sets := make([]Set, 512)
	for i := range sets {
		sets[i] = New(ID(i), ID(i+1000))
	}
	handles := make([]Handle, 0, len(sets))
	cycle := func() {
		for _, s := range sets[:256] {
			h, _ := in.Adopt(s)
			handles = append(handles, h)
		}
		for _, h := range handles {
			in.Release(h)
		}
		handles = handles[:0]
		sets = append(sets[256:], sets[:256]...)
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("an adopt/release cycle of 256 sets allocates %.1f times", n)
	}
}
