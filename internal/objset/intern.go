package objset

import (
	"unsafe"

	"tvq/internal/arena"
)

// Interner hash-conses object sets: equal sets (by content, regardless
// of representation) map to the same stable uint32 Handle, so set
// equality downstream is one integer compare and maps can key on
// handles instead of allocated key strings.
//
// The slot table is open-addressed with linear probing, 8 bytes a slot
// (a 32-bit hash and a handle), and doubles before more than half its
// slots are live. Release deletes by shifting the entries after the
// freed slot back toward their home slots, so the table never holds
// tombstones and never has to be rebuilt to drop them. Steady-state
// Lookup/Intern/Release therefore perform no allocations: the only
// allocations are the owned copy made when a new set is first interned
// and the occasional table growth, both amortized over the set's
// lifetime. Handles of released sets are recycled, and the handle
// table grows in segments that are never copied once full (see
// arena.Table); the caller owns the life cycle (typically: one Release
// when the state keyed by the handle dies), which keeps both tables
// proportional to the live state count rather than the stream length.
//
// An Interner is not safe for concurrent use.
type Interner struct {
	sets arena.Table[Set] // handle → owned set contents; zero Set when released
	free []Handle

	slots []islot
	mask  uint32
	n     int // live entries
}

// Handle is a stable identifier for an interned set. Handles are only
// meaningful within the Interner that issued them.
type Handle uint32

// islot is one slot of the table: the low 32 bits of the set's hash,
// which place it and turn away most unequal sets without loading them,
// and its handle.
type islot struct {
	hash uint32
	ref  uint32 // handle+1; 0 = empty
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{slots: make([]islot, 16), mask: 15}
}

// Len returns the number of live interned sets.
func (in *Interner) Len() int { return in.n }

// TableBytes returns the bytes of the interner's own tables, the handle
// table, the slots and the free list, not counting the sets' storage.
func (in *Interner) TableBytes() int {
	return in.sets.Cap()*int(unsafe.Sizeof(Set{})) + 8*cap(in.slots) + 4*cap(in.free)
}

// Of returns the set interned under h. The set is owned by the
// interner: callers may share it (Set is immutable) but must not apply
// owner-only mutations, and must not use h after releasing it.
func (in *Interner) Of(h Handle) Set { return *in.sets.At(int(h)) }

// Lookup returns the handle of s if it is interned. It never allocates.
func (in *Interner) Lookup(s Set) (Handle, bool) {
	h := uint32(s.Hash())
	for i := h & in.mask; ; i = (i + 1) & in.mask {
		sl := in.slots[i]
		if sl.ref == 0 {
			return 0, false
		}
		if sl.hash == h && in.sets.At(int(sl.ref-1)).Equal(s) {
			return Handle(sl.ref - 1), true
		}
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
	h := uint32(s.Hash())
	i := h & in.mask
	for ; in.slots[i].ref != 0; i = (i + 1) & in.mask {
		if sl := in.slots[i]; sl.hash == h && in.sets.At(int(sl.ref-1)).Equal(s) {
			return Handle(sl.ref - 1), false
		}
	}
	if 2*(in.n+1) > len(in.slots) {
		in.rehash(2 * len(in.slots))
		for i = h & in.mask; in.slots[i].ref != 0; i = (i + 1) & in.mask {
		}
	}
	if !adopt {
		s = s.Clone()
	}
	var hd Handle
	if n := len(in.free); n > 0 {
		hd = in.free[n-1]
		in.free = in.free[:n-1]
	} else {
		hd = Handle(in.sets.Len())
		in.sets.Grow(int(hd) + 1)
	}
	*in.sets.At(int(hd)) = s
	in.slots[i] = islot{hash: h, ref: uint32(hd) + 1}
	in.n++
	return hd, true
}

// Release removes the set interned under h and recycles the handle. It
// never allocates (the freelist append is amortized). Releasing a
// handle twice, or one never issued, corrupts the table; the caller
// pairs each Release with the death of the state that owned the handle.
//
// The slot is freed by Knuth's deletion for linear probing (TAOCP
// 6.4, Algorithm R): each later entry of the probe run that may sit in
// the hole without leaving its probe path moves into it, and its old
// slot becomes the hole, until an empty slot ends the run.
func (in *Interner) Release(h Handle) {
	set := in.sets.At(int(h))
	i := uint32(set.Hash()) & in.mask
	for in.slots[i].ref != uint32(h)+1 {
		if in.slots[i].ref == 0 {
			panic("objset: Release of un-interned handle")
		}
		i = (i + 1) & in.mask
	}
	for j := i; ; {
		j = (j + 1) & in.mask
		sl := in.slots[j]
		if sl.ref == 0 {
			break
		}
		// sl stays when its home slot lies cyclically in (i, j]: it
		// would not be found in the hole.
		if home := sl.hash & in.mask; i < j && i < home && home <= j || j < i && (i < home || home <= j) {
			continue
		}
		in.slots[i] = sl
		i = j
	}
	in.slots[i] = islot{}
	*set = Set{}
	in.free = append(in.free, h)
	in.n--
}

// Reserve makes room for n more sets, so that interning them neither
// grows the handle table nor rehashes the slots: a decoder that knows
// how many sets it restores sizes both tables once, the handle table
// exactly. The slots are sized for a load of at most one half once the
// n sets are in.
func (in *Interner) Reserve(n int) {
	in.sets.Reserve(in.sets.Len() + max(0, n-len(in.free)))
	size := len(in.slots)
	for size < (in.n+n)*2 {
		size *= 2
	}
	if size > len(in.slots) {
		in.rehash(size)
	}
}

// rehash rebuilds the slot table at size, a power of two.
func (in *Interner) rehash(size int) {
	old := in.slots
	in.slots = make([]islot, size)
	in.mask = uint32(size - 1)
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		i := sl.hash & in.mask
		for in.slots[i].ref != 0 {
			i = (i + 1) & in.mask
		}
		in.slots[i] = sl
	}
}
