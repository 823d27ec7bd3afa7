package objset

import "tvq/internal/arena"

// Slab builds long-lived sets in chunked storage, for a decoder that
// restores thousands of sets at once: the sets share a few large blocks
// of ids and bitmap words instead of taking one allocation each.
//
// Each set's storage is capped at its own length, so the owner-only
// in-place operations (IntersectWith) stay inside it. A chunk stays
// live while any set built in it does. The zero value is ready to use;
// a Slab is not safe for concurrent use.
type Slab struct {
	ids   arena.Chunks[ID]
	words arena.Chunks[uint64]
}

// FromSorted returns the set of ids in the representation Compact would
// pick, copied into the slab; ids is not retained. Like the package's
// FromSorted it panics if ids is not strictly increasing.
func (sl *Slab) FromSorted(ids []ID) Set {
	if s := FromSorted(ids); s.IsEmpty() { // FromSorted checks the order
		return s
	}
	if nwords := denseWords(ids); nwords > 0 {
		return fillDense(ids, sl.words.Take(nwords))
	}
	own := sl.ids.Take(len(ids))
	copy(own, ids)
	return Set{ids: own}
}
