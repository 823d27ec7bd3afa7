package arena

import "testing"

// TestTableGrowsInSegments grows a table one element at a time and by
// Reserve, against a slice: every element keeps its value, the head
// doubles from firstSeg, later segments are allocated whole and never
// copied, and Reserve allocates exactly the room asked for, in one
// allocation on an empty table.
func TestTableGrowsInSegments(t *testing.T) {
	var tab Table[int]
	var model []int
	var seg1 *int // an element of the second segment, once there is one
	for i := 0; i < 5*segLen+7; i++ {
		tab.Grow(i + 1)
		*tab.At(i) = i * 3
		model = append(model, i*3)
		if i == segLen {
			seg1 = tab.At(i)
		}
		if seg1 != nil && tab.At(segLen) != seg1 {
			t.Fatalf("growing to %d moved an element of the second segment", i+1)
		}
		if c := tab.Cap(); i < segLen && c != max(firstSeg, 1<<bitsLen(i)) {
			t.Fatalf("first segment at length %d holds %d", i+1, c)
		}
	}
	for i, v := range tab.All() {
		if v != model[i] {
			t.Fatalf("element %d = %d, want %d", i, v, model[i])
		}
	}
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(model))
	}

	for _, n := range []int{0, 1, 17, segLen, segLen + 1, 3*segLen + 5} {
		var r Table[int]
		r.Reserve(n)
		if r.Cap() != n {
			t.Fatalf("Reserve(%d) made room for %d", n, r.Cap())
		}
		if n > 0 && (len(r.head) != n || len(r.segs) != 0) {
			t.Fatalf("Reserve(%d) on an empty table made a head of %d and %d segments", n, len(r.head), len(r.segs))
		}
		if allocs := testing.AllocsPerRun(1, func() { r.Grow(n) }); allocs != 0 {
			t.Fatalf("growing to a reserved %d allocated %.0f times", n, allocs)
		}
		r.Grow(n + 1) // past the reserve: at most one more segment
		if r.Cap() < n+1 || r.Cap() > n+segLen {
			t.Fatalf("growing past Reserve(%d) made room for %d", n, r.Cap())
		}
	}
}

func bitsLen(i int) int {
	n := 0
	for ; i > 0; i >>= 1 {
		n++
	}
	return n
}
