// Package arena carves many small, long-lived slices out of a few large
// chunks, for a decoder that rebuilds thousands of lists in one pass: a
// snapshot restore takes one allocation per chunk instead of one per
// list.
//
// Every slice Take returns is capped at its own length, so appending to
// it moves it out of the chunk instead of overwriting its neighbour, and
// a list that shrinks and regrows in place stays inside its own slots.
// A chunk stays live while any slice carved from it does.
package arena

import "unsafe"

// Chunk sizes in bytes: the first chunk is small, so a decoder that
// carves a few lists allocates little, and each later chunk is as large
// as all earlier ones together, up to maxChunk. A chunk's tail is left
// unused only when the next list is longer, so the room left unused is
// at most twice what was carved, plus one minimum chunk.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// Chunks hands out slices of T from chunked storage. The zero value is
// ready to use. Chunks is not safe for concurrent use.
type Chunks[T any] struct {
	free  []T // unused tail of the current chunk
	total int // elements in every chunk so far
}

// Take returns a zeroed slice of length and capacity n. A list longer
// than a quarter of the largest chunk gets storage of its own, and the
// current chunk keeps its room.
func (c *Chunks[T]) Take(n int) []T {
	if n > len(c.free) {
		size := max(int(unsafe.Sizeof(*new(T))), 1)
		limit := maxChunk / size
		if n > limit/4 {
			return make([]T, n)
		}
		elems := max(n, min(max(c.total, minChunk/size), limit))
		c.free = make([]T, elems)
		c.total += elems
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}
