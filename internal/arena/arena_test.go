package arena

import (
	"testing"
)

// TestTakeCapsAtLength carves lists of many lengths and requires each to
// end its storage, so growing one moves it out instead of writing over
// the next.
func TestTakeCapsAtLength(t *testing.T) {
	var c Chunks[uint32]
	var lists [][]uint32
	for n := 0; n < 300; n++ {
		l := c.Take(n % 37)
		if len(l) != n%37 || cap(l) != len(l) {
			t.Fatalf("Take(%d): len %d cap %d", n%37, len(l), cap(l))
		}
		for i := range l {
			l[i] = uint32(n)
		}
		lists = append(lists, l)
	}
	for n := range lists {
		lists[n] = append(lists[n], 1<<31)
	}
	for n, l := range lists {
		for _, v := range l[:len(l)-1] {
			if v != uint32(n) {
				t.Fatalf("list %d holds %d after its neighbours grew", n, v)
			}
		}
	}
}

// TestTakeAllocations requires the chunks to grow geometrically up to
// their cap: a quarter million short lists, 4 MiB in all, take one
// allocation per 64 KiB chunk plus the few small chunks before the
// first, and a list over a quarter chunk takes one of its own.
func TestTakeAllocations(t *testing.T) {
	const lists, each = 1 << 18, 4
	allocs := testing.AllocsPerRun(1, func() {
		var c Chunks[uint32]
		for i := 0; i < lists; i++ {
			c.Take(each)
		}
	})
	if want := float64(lists*each*4/maxChunk + 8); allocs > want {
		t.Errorf("%d lists of %d ids take %.0f allocations, want at most %.0f", lists, each, allocs, want)
	}
	var c Chunks[uint64]
	c.Take(1)
	if n := testing.AllocsPerRun(10, func() { c.Take(maxChunk / 8 / 2) }); n != 1 {
		t.Errorf("a half-chunk list takes %.0f allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { c.Take(1) }); n != 0 {
		t.Errorf("a one-element list after a large one allocates %.0f times: the large one discarded the chunk", n)
	}
}
