package objset

import "slices"

// Interner hash-conses object sets: equal sets (by content, regardless
// of representation) map to the same stable uint32 Handle, so set
// equality downstream is one integer compare and maps can key on
// handles instead of allocated key strings.
//
// The table is open-addressed with tombstone deletion, so steady-state
// Lookup/Intern/Release perform no allocations: the only allocations
// are the owned copy made when a new set is first interned and the
// occasional table growth, both amortized over the set's lifetime.
// Handles of released sets are recycled; the caller owns the life cycle
// (typically: one Release when the state keyed by the handle dies),
// which keeps the table proportional to the live state count rather
// than the stream length.
//
// An Interner is not safe for concurrent use.
type Interner struct {
	sets []Set // handle → owned set contents; zero Set when released
	free []Handle

	slots  []islot
	mask   uint64
	n      int // live entries
	filled int // live + tombstones, for the growth trigger
}

// Handle is a stable identifier for an interned set. Handles are only
// meaningful within the Interner that issued them.
type Handle uint32

type islot struct {
	hash uint64
	ref  uint32 // handle+2; 0 = empty, 1 = tombstone
}

const (
	slotEmpty     = 0
	slotTombstone = 1
	slotBase      = 2
)

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{slots: make([]islot, 16), mask: 15}
}

// Len returns the number of live interned sets.
func (in *Interner) Len() int { return in.n }

// Of returns the set interned under h. The set is owned by the
// interner: callers may share it (Set is immutable) but must not apply
// owner-only mutations, and must not use h after releasing it.
func (in *Interner) Of(h Handle) Set { return in.sets[h] }

// Lookup returns the handle of s if it is interned. It never allocates.
func (in *Interner) Lookup(s Set) (Handle, bool) {
	h := s.Hash()
	i := h & in.mask
	for {
		sl := in.slots[i]
		switch {
		case sl.ref == slotEmpty:
			return 0, false
		case sl.ref != slotTombstone && sl.hash == h && in.sets[sl.ref-slotBase].Equal(s):
			return Handle(sl.ref - slotBase), true
		}
		i = (i + 1) & in.mask
	}
}

// Intern returns the stable handle for s, interning an owned copy (via
// Clone, which also picks the cheaper representation) when s is new.
// created reports whether this call created the entry. s itself is not
// retained, so Scratch-backed sets may be interned directly. Interning
// the empty set is not supported and panics: generators never key state
// on it, and reserving it would cost every lookup a branch.
func (in *Interner) Intern(s Set) (handle Handle, created bool) {
	return in.intern(s, false)
}

// Adopt is Intern for a set the caller hands over, such as one just
// decoded: a new set is interned as it is instead of copied, so the
// caller must not hold scratch-backed storage in it. Nothing else may
// retain s mutably; Set is immutable, so sharing it is fine.
func (in *Interner) Adopt(s Set) (handle Handle, created bool) {
	return in.intern(s, true)
}

func (in *Interner) intern(s Set, adopt bool) (handle Handle, created bool) {
	if s.IsEmpty() {
		panic("objset: cannot intern the empty set")
	}
	h := s.Hash()
	i := h & in.mask
	insert := -1
	for {
		sl := in.slots[i]
		switch {
		case sl.ref == slotEmpty:
			if in.filled*4 >= len(in.slots)*3 {
				in.grow()
				return in.intern(s, adopt)
			}
			if !adopt {
				s = s.Clone()
			}
			var hd Handle
			if n := len(in.free); n > 0 {
				hd = in.free[n-1]
				in.free = in.free[:n-1]
			} else {
				hd = Handle(len(in.sets))
				in.sets = append(in.sets, Set{})
			}
			in.sets[hd] = s
			if insert >= 0 {
				i = uint64(insert) // reuse the first tombstone on the probe path
			} else {
				in.filled++
			}
			in.slots[i] = islot{hash: h, ref: uint32(hd) + slotBase}
			in.n++
			return hd, true
		case sl.ref == slotTombstone:
			if insert < 0 {
				insert = int(i)
			}
		case sl.hash == h && in.sets[sl.ref-slotBase].Equal(s):
			return Handle(sl.ref - slotBase), false
		}
		i = (i + 1) & in.mask
	}
}

// Release removes the set interned under h and recycles the handle. It
// never allocates (the freelist append is amortized). Releasing a
// handle twice, or one never issued, corrupts the table; the caller
// pairs each Release with the death of the state that owned the handle.
func (in *Interner) Release(h Handle) {
	s := in.sets[h]
	hs := s.Hash()
	i := hs & in.mask
	for {
		sl := in.slots[i]
		if sl.ref >= slotBase && Handle(sl.ref-slotBase) == h {
			in.slots[i].ref = slotTombstone
			break
		}
		if sl.ref == slotEmpty {
			panic("objset: Release of un-interned handle")
		}
		i = (i + 1) & in.mask
	}
	in.sets[h] = Set{}
	in.free = append(in.free, h)
	in.n--
}

// Reserve makes room for n more sets, so that interning them neither
// grows the handle table nor rehashes the slots: a decoder that knows
// how many sets it restores sizes the table once. The slots are sized
// for a load of at most one half once the n sets are in.
func (in *Interner) Reserve(n int) {
	in.sets = slices.Grow(in.sets, max(0, n-len(in.free)))
	size := len(in.slots)
	for size < (in.filled+n)*2 {
		size *= 2
	}
	if size > len(in.slots) {
		in.rehash(size)
	}
}

// grow rebuilds the slot table at the next power of two that keeps the
// load factor under one quarter, dropping tombstones.
func (in *Interner) grow() {
	size := len(in.slots)
	for size < (in.n+1)*4 {
		size *= 2
	}
	// When live entries are well under capacity the trigger was mostly
	// tombstones; rebuilding at the same size drops them.
	in.rehash(size)
}

// rehash rebuilds the slot table at size, a power of two, dropping
// tombstones.
func (in *Interner) rehash(size int) {
	old := in.slots
	in.slots = make([]islot, size)
	in.mask = uint64(size - 1)
	in.filled = in.n
	for _, sl := range old {
		if sl.ref < slotBase {
			continue
		}
		i := sl.hash & in.mask
		for in.slots[i].ref != slotEmpty {
			i = (i + 1) & in.mask
		}
		in.slots[i] = islot{hash: sl.hash, ref: sl.ref}
	}
}
