package core

import (
	"math/rand"
	"runtime"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// allocFeed builds a steady-state feed: a fixed object population with
// per-frame random subsets, so after the first window the generators
// churn states at a constant rate — the regime the zero-allocation hot
// path is designed for.
func allocFeed(n int, seed int64) []vr.Frame {
	r := rand.New(rand.NewSource(seed))
	feed := make([]vr.Frame, n)
	for i := range feed {
		k := 4 + r.Intn(5)
		ids := make([]objset.ID, 0, k)
		for j := 0; j < k; j++ {
			ids = append(ids, objset.ID(1+r.Intn(24)))
		}
		feed[i] = vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)}
	}
	return feed
}

// measureProcessAllocs warms gen on the feed's prefix, then returns the
// average allocations per Process call over the remainder.
func measureProcessAllocs(t *testing.T, gen Generator, feed []vr.Frame, warm int) float64 {
	t.Helper()
	for _, f := range feed[:warm] {
		gen.Process(f)
	}
	i := warm
	return testing.AllocsPerRun(len(feed)-warm-1, func() {
		gen.Process(feed[i])
		i++
	})
}

// TestProcessSteadyStateAllocs pins the allocation budget of a full
// Process frame on warm generators. The budget is not zero — genuinely
// new states still allocate their node/struct storage — but it must stay
// a small constant; the seed implementation spent hundreds of
// allocations per frame on key strings, fresh intersection slices and
// emission maps. A regression that reintroduces per-probe or per-state
// allocations shows up here as an order-of-magnitude jump.
func TestProcessSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	feed := allocFeed(600, 42)
	cfg := Config{Window: 30, Duration: 4}
	for _, tc := range []struct {
		name   string
		gen    Generator
		budget float64
	}{
		// Measured on this feed: naive 6, mfs 7, ssg 12 (the SSG count
		// covers node structs for states the graph genuinely creates
		// each frame), with and without -race. Budgets leave ~2×
		// headroom; the seed implementation sat in the hundreds.
		{"naive", NewNaive(cfg), 12},
		{"mfs", NewMFS(cfg), 14},
		{"ssg", NewSSG(cfg), 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := measureProcessAllocs(t, tc.gen, feed, 200)
			t.Logf("%s: %.2f allocs per warm Process frame", tc.name, got)
			if got > tc.budget {
				t.Errorf("warm Process allocates %.2f per frame, budget %.0f", got, tc.budget)
			}
		})
	}
}

// TestAllocsPerCreatedState pins what a warm generator allocates for
// each state it creates on a churning feed. Everything that dies with
// a state is recycled — its struct, frame list and blockers, and for
// SSG its node's edge arrays — so what is left is the interned object
// set (and for SSG the node struct), which results and stale pointers
// outlive, plus slack for the table and scratch growth the churn still
// causes now and then.
func TestAllocsPerCreatedState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	feed := allocFeed(600, 42)
	cfg := Config{Window: 30, Duration: 4}
	type counted interface {
		Generator
		Metrics() Metrics
	}
	for _, tc := range []struct {
		name   string
		gen    counted
		budget float64
	}{
		{"naive", NewNaive(cfg), 1.5},
		{"mfs", NewMFS(cfg), 1.5},
		{"ssg", NewSSG(cfg), 2.5}, // the node struct and the interned set
	} {
		t.Run(tc.name, func(t *testing.T) {
			const warm = 200
			for _, f := range feed[:warm] {
				tc.gen.Process(f)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			created := tc.gen.Metrics().StatesCreated
			runtime.ReadMemStats(&before)
			for _, f := range feed[warm:] {
				tc.gen.Process(f)
			}
			runtime.ReadMemStats(&after)
			created = tc.gen.Metrics().StatesCreated - created
			if created == 0 {
				t.Fatal("the feed created no states after warm-up")
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(created)
			t.Logf("%s: %.2f allocations per created state (%d created)", tc.name, per, created)
			if per > tc.budget {
				t.Errorf("%.2f allocations per created state, budget %.1f", per, tc.budget)
			}
		})
	}
}

// TestEmitSteadyStateAllocFree pins the emission-time maximality filter:
// on a warm emitter, filtering and sorting a result set allocates
// nothing (the seed built a map, a byte-string key per state and a fresh
// result slice per frame).
func TestEmitSteadyStateAllocFree(t *testing.T) {
	var states []*State
	for i := 0; i < 64; i++ {
		s := &State{Objects: objset.New(objset.ID(i), objset.ID(i+100))}
		for fid := vr.FrameID(0); fid < vr.FrameID(3+i%4); fid++ {
			s.frames.insert(fid, true)
		}
		states = append(states, s)
	}
	em := &emitter{}
	em.emit(states, 2, true) // warm the buffers
	if n := testing.AllocsPerRun(100, func() {
		em.emit(states, 2, true)
	}); n != 0 {
		t.Errorf("warm emit allocates %.1f per call", n)
	}
}
