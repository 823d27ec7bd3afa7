package bench

import (
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/engine"
	"tvq/internal/video"
	"tvq/internal/vr"
)

// Shape regression tests: the paper's qualitative claims, asserted on
// deterministic work metrics (states visited, intersections computed,
// states maintained) rather than wall time, so they are stable across
// machines. Each test names the paper finding it guards.

type metered interface {
	core.Generator
	Metrics() core.Metrics
}

func runMetered(t *testing.T, gen metered, tr *vr.Trace) core.Metrics {
	t.Helper()
	for _, f := range tr.Frames() {
		gen.Process(f)
	}
	return gen.Metrics()
}

func scaledCfg(c Config) core.Config {
	return core.Config{Window: c.scale(DefaultWindow), Duration: c.scale(DefaultDuration)}
}

// Claim (§6.2, Figures 4-6): on moving-camera datasets with short object
// lifetimes (M1), SSG's subtree pruning visits far fewer states per frame
// than the flat scans of NAIVE/MFS.
func TestShapeSSGVisitsFewerStatesOnM1(t *testing.T) {
	// Scale 3 rather than the usual test scale: the containment structure
	// SSG exploits needs a realistically sized window to emerge.
	c := Config{Seed: 1, Scale: 3}
	ds, err := c.LoadDataset("M1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaledCfg(c)
	ssg := runMetered(t, core.NewSSG(cfg), ds.Trace)
	mfs := runMetered(t, core.NewMFS(cfg), ds.Trace)
	if ssg.Intersections >= mfs.Intersections {
		t.Errorf("SSG computed %d intersections, MFS %d; SSG should compute fewer on M1",
			ssg.Intersections, mfs.Intersections)
	}
	if float64(ssg.Intersections) > 0.8*float64(mfs.Intersections) {
		t.Errorf("SSG saved only %.0f%% of intersections on M1; the paper's gap is larger",
			100*(1-float64(ssg.Intersections)/float64(mfs.Intersections)))
	}
}

// Claim (§4.3, Figures 4-6): on a static camera with heavy traffic (V2)
// at the paper's own window, State Traversal touches a small part of the
// graph — the states the previous frame contained and the subtrees an
// arriving object enters — where NAIVE intersects every state it holds.
// Full scale, because the claim is about w=300: at a test-sized window a
// frame's change is most of the window.
func TestShapeSSGVisitsQuarterOfNaiveOnV2(t *testing.T) {
	c := Config{Seed: 1, Scale: 1}
	ds, err := c.LoadDataset("V2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaledCfg(c)
	ssg := runMetered(t, core.NewSSG(cfg), ds.Trace)
	naive := runMetered(t, core.NewNaive(cfg), ds.Trace)
	if 4*ssg.StatesVisited > naive.StatesVisited {
		t.Errorf("SSG visited %d states over %d frames, NAIVE %d; SSG should visit at most a quarter",
			ssg.StatesVisited, ssg.FramesProcessed, naive.StatesVisited)
	}
	// Every visit costs SSG at most two object-set operations (the
	// arrival test and the intersection); the tests that turn a subtree
	// away are the rest.
	if ssg.Intersections >= naive.Intersections {
		t.Errorf("SSG computed %d object-set operations, NAIVE %d", ssg.Intersections, naive.Intersections)
	}
}

// Claim (§4.2, Figure 7): MFS prunes invalid states that NAIVE retains,
// and the gap widens as occlusions are injected (po).
func TestShapeMFSPrunesMoreUnderOcclusion(t *testing.T) {
	c := quick()
	ds, err := c.LoadDataset("D1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaledCfg(c)
	tr := video.ReuseIDs(ds.Trace, 3, 7)

	peak := func(gen core.Generator) int {
		max := 0
		for _, f := range tr.Frames() {
			gen.Process(f)
			if n := gen.StateCount(); n > max {
				max = n
			}
		}
		return max
	}
	naive := peak(core.NewNaive(cfg))
	mfs := peak(core.NewMFS(cfg))
	if mfs > naive {
		t.Errorf("MFS peaked at %d states, NAIVE at %d; MFS must not retain more", mfs, naive)
	}
}

// Claim (Figure 8): total time is flat in the number of queries — query
// evaluation cost is negligible next to state maintenance. Asserted on
// states visited, which must be identical regardless of the query count.
func TestShapeQueryCountDoesNotAffectStateMaintenance(t *testing.T) {
	c := quick()
	ds, err := c.LoadDataset("M1")
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{}
	for _, n := range []int{10, 50} {
		qs := MixedWorkload(n, c.scale(DefaultWindow), c.scale(DefaultDuration), c.Seed)
		eng, err := engine.New(qs, engine.Options{
			Method:         engine.MethodMFS,
			Registry:       cloneRegistry(ds.Reg),
			KeepAllClasses: true, // identical inputs regardless of workload classes
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ds.Trace.Frames() {
			eng.ProcessFrame(f)
		}
		counts = append(counts, eng.StateCount())
	}
	if counts[0] != counts[1] {
		t.Errorf("state maintenance depended on query count: %v", counts)
	}
}

// Claim (§5.3, Figure 9): with demanding ≥-only workloads, result-driven
// pruning collapses the state population by an order of magnitude, and
// the effect strengthens with n_min.
func TestShapePruningCollapsesStatesWithNmin(t *testing.T) {
	c := quick()
	ds, err := c.LoadDataset("M2")
	if err != nil {
		t.Fatal(err)
	}
	peakStates := func(nmin int, prune bool) int {
		qs := GEWorkload(100, nmin, c.scale(DefaultWindow), c.scale(DefaultDuration), c.Seed)
		eng, err := engine.New(qs, engine.Options{
			Method:   engine.MethodSSG,
			Prune:    prune,
			Registry: cloneRegistry(ds.Reg),
		})
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, f := range ds.Trace.Frames() {
			eng.ProcessFrame(f)
			if n := eng.StateCount(); n > max {
				max = n
			}
		}
		return max
	}
	base := peakStates(9, false)
	pruned9 := peakStates(9, true)
	pruned3 := peakStates(3, true)
	if pruned9*5 > base {
		t.Errorf("pruning at nmin=9 kept %d of %d states; expected >5x collapse", pruned9, base)
	}
	if pruned9 > pruned3 {
		t.Errorf("pruning weakened as nmin grew: nmin=9 kept %d, nmin=3 kept %d", pruned9, pruned3)
	}
}

// Claim (Figure 7 / §6.2): injected occlusions (po) increase the work all
// methods perform; the first injection step is the most violent.
func TestShapeOcclusionInjectionIncreasesWork(t *testing.T) {
	c := quick()
	ds, err := c.LoadDataset("M2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaledCfg(c)
	base := runMetered(t, core.NewMFS(cfg), ds.Trace)
	injected := runMetered(t, core.NewMFS(cfg), video.ReuseIDs(ds.Trace, 1, 7))
	if injected.Intersections <= base.Intersections {
		t.Errorf("po=1 did not increase intersections: %d vs %d",
			injected.Intersections, base.Intersections)
	}
}

// Claim (§3): the class-filter push-down shrinks state maintenance when
// queries reference a subset of classes.
func TestShapeClassFilterShrinksWork(t *testing.T) {
	c := quick()
	ds, err := c.LoadDataset("M2") // person-heavy with some vehicles
	if err != nil {
		t.Fatal(err)
	}
	run := func(keepAll bool) int {
		q := cnfQuery(t, 1, "bus >= 1", c.scale(DefaultWindow), c.scale(DefaultDuration))
		eng, err := engine.New(q, engine.Options{
			Method:         engine.MethodMFS,
			KeepAllClasses: keepAll,
			Registry:       cloneRegistry(ds.Reg),
		})
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, f := range ds.Trace.Frames() {
			eng.ProcessFrame(f)
			if n := eng.StateCount(); n > max {
				max = n
			}
		}
		return max
	}
	filtered := run(false)
	unfiltered := run(true)
	if filtered*2 > unfiltered {
		t.Errorf("class filter kept %d of %d states; expected a large reduction on a bus-only query",
			filtered, unfiltered)
	}
}

func cnfQuery(t *testing.T, id int, text string, w, d int) []cnf.Query {
	t.Helper()
	q, err := cnf.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q.ID, q.Window, q.Duration = id, w, d
	return []cnf.Query{q}
}

func cloneRegistry(reg *vr.Registry) *vr.Registry {
	return vr.NewRegistry(reg.Names()...)
}
