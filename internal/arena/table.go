package arena

import "iter"

// Table is an array indexed from 0 that grows in fixed segments instead
// of by copying, for a table indexed by a recycled handle whose length
// follows the live set: an interner's handle table, a generator's node
// table. Growing a slice by append copies it each time and leaves every
// outgrown array to the collector, about four times the final array in
// all at append's quarter steps; a segment, once full, is never copied
// again.
//
// The first segment, the head, may have any length: it starts small and
// doubles until it holds segLen elements, so a small table stays small,
// or Reserve sizes it exactly, so a decoder that knows its count
// allocates the table once. The segments after it hold segLen elements
// each, but the last, which Reserve may cut short and which growing past
// it later copies. At's pointer is only valid until the next Grow or
// Reserve. The zero value is an empty table; a Table is not safe for
// concurrent use.
type Table[T any] struct {
	head []T
	segs [][]T // each segLen long but the last, which may be shorter
	n    int
}

const (
	segShift = 8
	segLen   = 1 << segShift // 256: a Set segment is 14 KiB, a malloc size class
	firstSeg = 16
)

// Len returns the number of elements.
func (t *Table[T]) Len() int { return t.n }

// At returns element i, which must be below Len.
func (t *Table[T]) At(i int) *T {
	if i >= t.n {
		panic("arena: Table index out of range")
	}
	if i < len(t.head) {
		return &t.head[i]
	}
	i -= len(t.head)
	return &t.segs[i>>segShift][i&(segLen-1)]
}

// Grow extends the table to n elements, the new ones zero. A table at
// least n long is left as it is.
func (t *Table[T]) Grow(n int) {
	t.extend(n, false)
	t.n = max(t.n, n)
}

// Reserve makes room for n elements in all, so that growing the table
// to n allocates nothing more, and allocates no more than that room.
func (t *Table[T]) Reserve(n int) { t.extend(n, true) }

// All yields the elements in index order.
func (t *Table[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		for i := 0; i < t.n; i++ {
			if !yield(i, *t.At(i)) {
				return
			}
		}
	}
}

// Cap returns how many elements the segments hold.
func (t *Table[T]) Cap() int {
	k := len(t.segs)
	if k == 0 {
		return len(t.head)
	}
	return len(t.head) + (k-1)<<segShift + len(t.segs[k-1])
}

// extend regrows the head, adds segments or regrows a short last one,
// until they hold n elements. exact stops at n; otherwise the head
// doubles up to segLen and every later segment is allocated whole.
func (t *Table[T]) extend(n int, exact bool) {
	for c := t.Cap(); c < n; c = t.Cap() {
		k := len(t.segs)
		if k == 0 && (exact || c < segLen) {
			size := n
			if !exact {
				size = min(segLen, max(firstSeg, 2*c, n))
			}
			t.head = regrow(t.head, size)
			continue
		}
		size := segLen
		if exact {
			size = n - c
		}
		if k > 0 && len(t.segs[k-1]) < segLen {
			last := t.segs[k-1]
			t.segs[k-1] = regrow(last, min(segLen, len(last)+size))
			continue
		}
		t.segs = append(t.segs, make([]T, min(segLen, size)))
	}
}

// regrow returns a copy of s at length n.
func regrow[T any](s []T, n int) []T {
	grown := make([]T, n)
	copy(grown, s)
	return grown
}
