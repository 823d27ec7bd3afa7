package core

import (
	"math/rand"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// slabKinds are the three generators whose payloads decode into slabs.
var slabKinds = []struct {
	name string
	make func(Config) Generator
}{
	{"naive", func(c Config) Generator { return NewNaive(c) }},
	{"mfs", func(c Config) Generator { return NewMFS(c) }},
	{"ssg", func(c Config) Generator { return NewSSG(c) }},
}

// grownSnapshot feeds gen random frames over 40 objects until it holds
// at least n states, and returns its encoding and state count.
func grownSnapshot(t *testing.T, gen Generator, n int) ([]byte, int) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for fid := 0; gen.StateCount() < n; fid++ {
		if fid == 100_000 {
			t.Fatalf("%s: %d states after %d frames, want %d", gen.Name(), gen.StateCount(), fid, n)
		}
		ids := make([]objset.ID, 6+r.Intn(6))
		for j := range ids {
			ids[j] = objset.ID(r.Intn(40))
		}
		gen.Process(vr.Frame{FID: vr.FrameID(fid), Objects: objset.New(ids...)})
	}
	var w snapshot.Writer
	if err := EncodeGenerator(&w, gen); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), gen.StateCount()
}

// TestDecodeAllocsIndependentOfStates pins the slab layout of a restore:
// decoding a generator takes a few blocks per payload — the struct
// slabs, the arena chunks, the pre-sized tables — not allocations per
// state, so a payload of about 4n states allocates less than 64 times
// more often than one of about n.
func TestDecodeAllocsIndependentOfStates(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	cfg := Config{Window: 400, Duration: 4}
	for _, k := range slabKinds {
		t.Run(k.name, func(t *testing.T) {
			var allocs [2]float64
			var states [2]int
			for i, n := range []int{500, 2000} {
				data, got := grownSnapshot(t, k.make(cfg), n)
				states[i] = got
				allocs[i] = testing.AllocsPerRun(5, func() {
					if _, err := DecodeGenerator(snapshot.NewReader(data), cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			t.Logf("%d states: %.0f allocs; %d states: %.0f allocs", states[0], allocs[0], states[1], allocs[1])
			if states[1] < 3*states[0] {
				t.Fatalf("payloads of %d and %d states are too close to compare", states[0], states[1])
			}
			if d := allocs[1] - allocs[0]; d >= 64 {
				t.Errorf("decoding %d states allocates %.0f times, %d states %.0f: %.0f more, want < 64", states[1], allocs[1], states[0], allocs[0], d)
			}
		})
	}
}

// TestDecodedListsCappedAtLength requires every decoded state's frame
// list, object ids and blockers to end their storage: the lists share
// slab chunks, and one with room past its end would let a growing or
// recycled state overwrite its neighbour. It then grows every list and
// requires the neighbours' contents unchanged.
func TestDecodedListsCappedAtLength(t *testing.T) {
	cfg := Config{Window: 60, Duration: 3}
	for _, k := range slabKinds {
		t.Run(k.name, func(t *testing.T) {
			data, _ := grownSnapshot(t, k.make(cfg), 200)
			g := roundTrip(t, data, cfg)
			states := generatorStates(g)
			before := make([]string, len(states))
			for i, s := range states {
				before[i] = s.String()
				if e := s.frames.entries; cap(e) != len(e) {
					t.Fatalf("state %s: frame list of %d entries has capacity %d", s, len(e), cap(e))
				}
				for _, set := range []objset.Set{s.Objects, s.extra} {
					if ids := set.IDs(); cap(ids) != len(ids) {
						t.Fatalf("state %s: set %s of %d ids has capacity %d", s, set, len(ids), cap(ids))
					}
				}
			}
			next := g.Next()
			for i, s := range states {
				s.frames.push(newFrameEntry(next+vr.FrameID(i), false))
			}
			for i, s := range states {
				live := s.frames.live()
				if got := (&State{Objects: s.Objects, frames: frameList{entries: live[:len(live)-1]}}).String(); got != before[i] {
					t.Fatalf("growing the frame lists changed a neighbour: %s, was %s", got, before[i])
				}
			}
		})
	}
}
