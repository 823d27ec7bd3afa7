package objset

import (
	"math/bits"
	"slices"
	"testing"
	"unsafe"
)

// FuzzSetAlgebra decodes two or three id lists, builds each in every way
// the package builds a set — FromSorted, Compact, a Slab, MinusInto into
// a dense and into a sparse spare, and a forced bitmap — and checks every
// operation on every pairing against a sorted-slice model. Each set it
// meets must keep the layout invariants (checkLayout), and the
// constructors that pick a form must pick Compact's.
//
//	go test -fuzz=FuzzSetAlgebra -fuzztime=30s ./internal/objset
func FuzzSetAlgebra(f *testing.F) {
	f.Add([]byte{0x00, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0xff, 0, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{0x06, 0x85, 3, 0x90, 0xff, 0x81, 0xff, 7, 7, 7})
	f.Add([]byte{0x0b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := decodeLists(data)
		sets := make([][]Set, len(lists))
		for i, ids := range lists {
			for _, build := range builders {
				s := build.fn(ids)
				checkLayout(t, s)
				if build.compactForm {
					checkForm(t, s)
				}
				if !slices.Equal(s.AppendTo(nil), ids) {
					t.Fatalf("%s(%v) holds %v", build.name, ids, s)
				}
				sets[i] = append(sets[i], s)
			}
		}
		var scratch Scratch
		for i, a := range lists {
			for j, b := range lists {
				for ka, sa := range sets[i] {
					for kb, sb := range sets[j] {
						checkPair(t, a, b, sa, sb, &scratch, builders[ka].name+"/"+builders[kb].name)
					}
				}
			}
		}
		if len(lists) == 3 {
			// An owned receiver shrunk twice in place, as a state's
			// blockers are, by sets of either form.
			for _, build := range builders {
				for _, sb := range sets[1] {
					for _, sc := range sets[2] {
						s := build.fn(lists[0])
						s.IntersectWith(sb)
						checkLayout(t, s)
						s.IntersectWith(sc)
						checkLayout(t, s)
						want := modelIntersect(modelIntersect(lists[0], lists[1]), lists[2])
						if got := s.AppendTo(nil); !slices.Equal(got, want) {
							t.Fatalf("%s: %v ∩= %v ∩= %v gives %v, want %v", build.name, lists[0], sb, sc, got, want)
						}
					}
				}
			}
		}
	})
}

// builders are the ways a set is built from strictly increasing ids.
// compactForm marks the ones that must pick the form Compact picks.
var builders = []struct {
	name        string
	fn          func([]ID) Set
	compactForm bool
}{
	{"FromSorted", func(ids []ID) Set { return FromSorted(slices.Clone(ids)) }, false},
	{"Compact", func(ids []ID) Set { return Compact(FromSorted(slices.Clone(ids))) }, true},
	{"Slab", func(ids []ID) Set {
		var sl Slab
		return sl.FromSorted(ids)
	}, true},
	{"MinusInto/dense", func(ids []ID) Set {
		w := make([]uint64, 3, 40)
		for i := range w {
			w[i] = ^uint64(0) // stale members must not leak
		}
		return FromSorted(slices.Clone(ids)).MinusInto(Empty, dense(w, 64, 192))
	}, true},
	{"MinusInto/sparse", func(ids []ID) Set {
		return FromSorted(slices.Clone(ids)).MinusInto(Empty, Set{ids: make([]ID, 5, 80)})
	}, true},
	{"dense", func(ids []ID) Set { return forceDense(FromSorted(slices.Clone(ids))) }, false},
}

// decodeLists reads the first byte as the list count (two or three) and
// the base of the ids, and then lists separated by 0xff. Each other byte
// steps the current id: by 1+b when its top bit is clear, by 1+(b&0x7f)
// 64-id words when it is set. A base near 2^32 reaches the top 64-id
// block; a step past it ends the list.
func decodeLists(data []byte) [][]ID {
	var hdr byte
	if len(data) > 0 {
		hdr, data = data[0], data[1:]
	}
	bases := [...]ID{0, 1, 63, 64, 1000, 1 << 20, ^ID(0) - 700, ^ID(0) - 40}
	lists := make([][]ID, 2+int(hdr>>7))
	for i := range lists {
		base := bases[(int(hdr)+3*i)%len(bases)]
		cur, first := uint64(base), true
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if b == 0xff {
				break
			}
			if !first {
				if b&0x80 != 0 {
					cur += 1 + 64*uint64(b&0x7f)
				} else {
					cur += 1 + uint64(b)
				}
			}
			first = false
			if cur > uint64(^ID(0)) {
				break
			}
			lists[i] = append(lists[i], ID(cur))
		}
	}
	return lists
}

// checkLayout holds s to its form's invariants: sparse ids strictly
// increasing with off 0; dense storage 8-byte aligned, a whole number
// of words, trimmed at both ends, off a multiple of 64 and card the
// popcount.
func checkLayout(t *testing.T, s Set) {
	t.Helper()
	if s.card == 0 {
		if s.off != 0 || !slices.IsSorted(s.ids) || len(slices.Compact(slices.Clone(s.ids))) != len(s.ids) {
			t.Fatalf("sparse set off %d, ids %v", s.off, s.ids)
		}
		return
	}
	if p := uintptr(unsafe.Pointer(unsafe.SliceData(s.ids))); p%8 != 0 {
		t.Fatalf("dense storage of %v at %#x is not 8-byte aligned", s, p)
	}
	if len(s.ids)%2 != 0 || cap(s.ids)%2 != 0 {
		t.Fatalf("dense storage of %v is %d/%d ids, not whole words", s, len(s.ids), cap(s.ids))
	}
	w := s.words()
	if len(w) == 0 || w[0] == 0 || w[len(w)-1] == 0 || s.off%64 != 0 {
		t.Fatalf("dense set untrimmed: off %d, words %x", s.off, w)
	}
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	if n != int(s.card) {
		t.Fatalf("dense set card %d, popcount %d", s.card, n)
	}
}

// checkForm requires s in the form Compact picks for its members.
func checkForm(t *testing.T, s Set) {
	t.Helper()
	if c := Compact(FromSorted(s.AppendTo(nil))); (c.card == 0) != (s.card == 0) {
		t.Fatalf("%v is dense %v, Compact picks dense %v", s, s.card != 0, c.card != 0)
	}
}

// checkPair checks every operation on the pair (sa, sb) against the
// models a and b.
func checkPair(t *testing.T, a, b []ID, sa, sb Set, scratch *Scratch, name string) {
	t.Helper()
	inter := modelIntersect(a, b)
	minus := modelMinus(a, b)
	union := modelMinus(a, b)
	union = append(union, b...)
	slices.Sort(union)

	got := sa.IntersectInto(sb, scratch)
	checkLayout(t, got)
	if !slices.Equal(got.AppendTo(nil), inter) {
		t.Fatalf("%s: IntersectInto(%v, %v) = %v, want %v", name, a, b, got, inter)
	}
	if n := sa.IntersectLen(sb); n != len(inter) {
		t.Fatalf("%s: IntersectLen(%v, %v) = %d, want %d", name, a, b, n, len(inter))
	}
	if x := sa.Intersects(sb); x != (len(inter) > 0) {
		t.Fatalf("%s: Intersects(%v, %v) = %v", name, a, b, x)
	}
	own := FromSorted(slices.Clone(a))
	if sa.card != 0 {
		own = forceDense(own)
	}
	own.IntersectWith(sb)
	checkLayout(t, own)
	if !slices.Equal(own.AppendTo(nil), inter) {
		t.Fatalf("%s: IntersectWith(%v, %v) = %v, want %v", name, a, b, own, inter)
	}
	u := sa.Union(sb)
	checkLayout(t, u)
	if !slices.Equal(u.AppendTo(nil), union) {
		t.Fatalf("%s: Union(%v, %v) = %v, want %v", name, a, b, u, union)
	}
	m := sa.Minus(sb)
	checkLayout(t, m)
	checkForm(t, m)
	if !slices.Equal(m.AppendTo(nil), minus) {
		t.Fatalf("%s: Minus(%v, %v) = %v, want %v", name, a, b, m, minus)
	}
	if sub := sa.SubsetOf(sb); sub != (len(inter) == len(a)) {
		t.Fatalf("%s: SubsetOf(%v, %v) = %v", name, a, b, sub)
	}
	if eq := sa.Equal(sb); eq != slices.Equal(a, b) {
		t.Fatalf("%s: Equal(%v, %v) = %v", name, a, b, eq)
	}
	if c := Compare(sa, sb); c != slices.Compare(a, b) {
		t.Fatalf("%s: Compare(%v, %v) = %d", name, a, b, c)
	}

	// The receiver on its own, against the model.
	ref := FromSorted(a)
	if sa.Len() != len(a) || sa.IsEmpty() != (len(a) == 0) || !slices.Equal(sa.IDs(), a) {
		t.Fatalf("%s: %v has Len %d, IsEmpty %v, IDs %v", name, a, sa.Len(), sa.IsEmpty(), sa.IDs())
	}
	if sa.Hash() != hashModel(a) || sa.Key() != keyModel(a) || sa.Sig() != sigModel(a) {
		t.Fatalf("%s: %v has Hash %x Key %q Sig %x", name, a, sa.Hash(), sa.Key(), sa.Sig())
	}
	if ref.Hash() != sa.Hash() || !ref.Equal(sa) || Compare(ref, sa) != 0 {
		t.Fatalf("%s: %v disagrees with its sparse form", name, a)
	}
	for _, id := range b {
		if sa.Contains(id) != slices.Contains(a, id) {
			t.Fatalf("%s: %v Contains(%d) = %v", name, a, id, !slices.Contains(a, id))
		}
	}
	for _, id := range a {
		if !sa.Contains(id) || sa.Contains(id+1) != slices.Contains(a, id+1) || sa.Contains(id-1) != slices.Contains(a, id-1) {
			t.Fatalf("%s: %v Contains around %d wrong", name, a, id)
		}
	}
}

func modelIntersect(a, b []ID) []ID {
	var out []ID
	for _, id := range a {
		if slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

func modelMinus(a, b []ID) []ID {
	var out []ID
	for _, id := range a {
		if !slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	return out
}

func hashModel(ids []ID) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		for k := 0; k < 4; k++ {
			h = (h ^ uint64(byte(id>>(8*k)))) * fnvPrime64
		}
	}
	return h
}

func keyModel(ids []ID) string {
	var b []byte
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

func sigModel(ids []ID) uint64 {
	var sig uint64
	for _, id := range ids {
		sig |= 1 << (id % 64)
	}
	return sig
}
