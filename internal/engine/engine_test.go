package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/track"
	"tvq/internal/video"
	"tvq/internal/vr"
)

func mkQuery(t *testing.T, id int, text string, w, d int) cnf.Query {
	t.Helper()
	q, err := cnf.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q.ID, q.Window, q.Duration = id, w, d
	return q
}

// smallTrace renders a small synthetic scene for engine tests.
func smallTrace(t *testing.T, seed int64) *vr.Trace {
	t.Helper()
	p := video.Profile{
		Name: "test", Frames: 120, Objects: 18,
		FramesPerObj: 35, OccPerObj: 1.5,
		ClassMix: map[string]float64{"person": 0.4, "car": 0.4, "truck": 0.2},
	}
	sc, err := video.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	reg := vr.StandardRegistry()
	tr, err := track.Detect(sc, reg, track.Noise{MissProb: 0.02, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	// An empty query set is a valid serving-shaped engine: frames flow,
	// nothing matches, queries arrive later via AddQuery.
	empty, err := New(nil, Options{})
	if err != nil {
		t.Fatalf("empty query set rejected: %v", err)
	}
	if ms := empty.ProcessFrame(vr.Frame{}); len(ms) != 0 {
		t.Errorf("empty engine produced matches: %v", ms)
	}
	if err := empty.AddQuery(mkQuery(t, 1, "car >= 1", 10, 5)); err != nil {
		t.Errorf("AddQuery on empty engine: %v", err)
	}
	if _, err := New([]cnf.Query{
		mkQuery(t, 7, "car >= 1", 10, 5),
		mkQuery(t, 7, "person >= 1", 20, 5),
	}, Options{}); !errors.Is(err, ErrDuplicateQuery) {
		t.Errorf("duplicate ids: err = %v, want ErrDuplicateQuery", err)
	}
	qs := []cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}
	if _, err := New(qs, Options{Method: "bogus"}); err == nil {
		t.Error("bogus method accepted")
	}
	e, err := New(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.groups) != 1 {
		t.Errorf("groups = %d", len(e.groups))
	}
}

func TestGroupsByWindow(t *testing.T) {
	qs := []cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "car >= 2", 20, 5),
		mkQuery(t, 3, "person >= 1", 10, 2),
	}
	e, err := New(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.groups) != 2 {
		t.Errorf("groups = %d, want 2", len(e.groups))
	}
}

func TestOutOfOrderFramePanics(t *testing.T) {
	e, _ := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	tr := smallTrace(t, 1)
	e.ProcessFrame(tr.Frame(0))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order frame accepted")
		}
	}()
	e.ProcessFrame(tr.Frame(5))
}

func matchKey(m query.Match) string {
	return fmt.Sprintf("%d|%s|%v", m.QueryID, m.Objects, m.Frames)
}

func runAll(t *testing.T, tr *vr.Trace, qs []cnf.Query, opts Options) map[vr.FrameID][]string {
	t.Helper()
	e, err := New(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[vr.FrameID][]string)
	for _, f := range tr.Frames() {
		ms := e.ProcessFrame(f)
		keys := make([]string, len(ms))
		for i, m := range ms {
			keys[i] = matchKey(m)
		}
		if len(keys) > 0 {
			out[f.FID] = keys
		}
	}
	return out
}

// TestMethodsAgree: the three state-maintenance methods must produce
// identical matches on identical feeds.
func TestMethodsAgree(t *testing.T) {
	tr := smallTrace(t, 7)
	qs := []cnf.Query{
		mkQuery(t, 1, "car >= 2", 12, 8),
		mkQuery(t, 2, "person >= 1 AND car >= 1", 12, 6),
		mkQuery(t, 3, "(person >= 2 OR truck >= 1) AND car >= 1", 12, 4),
	}
	want := runAll(t, tr, qs, Options{Method: MethodNaive})
	for _, m := range []Method{MethodMFS, MethodSSG} {
		got := runAll(t, tr, qs, Options{Method: m})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("method %s disagrees with naive: %d vs %d frames with matches",
				m, len(got), len(want))
		}
	}
}

// TestPruningPreservesResults: §5.3 termination must not change matches
// for ≥-only workloads, for both MFS and SSG.
func TestPruningPreservesResults(t *testing.T) {
	tr := smallTrace(t, 9)
	qs := []cnf.Query{
		mkQuery(t, 1, "car >= 2", 12, 6),
		mkQuery(t, 2, "person >= 2 AND car >= 1", 12, 6),
	}
	for _, m := range []Method{MethodMFS, MethodSSG} {
		plain := runAll(t, tr, qs, Options{Method: m})
		pruned := runAll(t, tr, qs, Options{Method: m, Prune: true})
		if !reflect.DeepEqual(plain, pruned) {
			t.Errorf("method %s: pruning changed results", m)
		}
	}
}

// TestPruningReducesStates: with a demanding ≥-only workload the engine
// should maintain far fewer states when pruning is on.
func TestPruningReducesStates(t *testing.T) {
	tr := smallTrace(t, 11)
	qs := []cnf.Query{mkQuery(t, 1, "car >= 9", 12, 6)}
	plain, _ := New(qs, Options{Method: MethodMFS})
	pruned, _ := New(qs, Options{Method: MethodMFS, Prune: true})
	maxPlain, maxPruned := 0, 0
	for _, f := range tr.Frames() {
		plain.ProcessFrame(f)
		pruned.ProcessFrame(f)
		if n := plain.StateCount(); n > maxPlain {
			maxPlain = n
		}
		if n := pruned.StateCount(); n > maxPruned {
			maxPruned = n
		}
	}
	if maxPruned >= maxPlain {
		t.Errorf("pruning did not reduce states: %d vs %d", maxPruned, maxPlain)
	}
}

// TestClassFilterPushdownPreservesResults: dropping unrequested classes
// must not change matches (it only shrinks object sets no query counts).
func TestClassFilterPushdownPreservesResults(t *testing.T) {
	tr := smallTrace(t, 13)
	qs := []cnf.Query{mkQuery(t, 1, "car >= 1", 12, 6)}
	with := runAll(t, tr, qs, Options{Method: MethodMFS})
	without := runAll(t, tr, qs, Options{Method: MethodMFS, KeepAllClasses: true})
	// With filtering, matched object sets contain only cars; without, the
	// MCOS may include extra persons/trucks co-occurring in the same
	// frames, so frame sets and query ids must agree per frame, while
	// object sets may be supersets. Compare match counts per frame and
	// query ids.
	if len(with) == 0 {
		t.Skip("no matches in this configuration; adjust seed")
	}
	for fid, ms := range with {
		if _, ok := without[fid]; !ok {
			t.Fatalf("frame %d matched with filtering but not without", fid)
		}
		_ = ms
	}
}

// TestSurveillanceScenario encodes the paper's §1 example: a white car
// and two humans jointly present for a sustained duration.
func TestSurveillanceScenario(t *testing.T) {
	reg := vr.StandardRegistry()
	car, p1, p2 := uint32(2), uint32(1), uint32(3)
	classes := map[objset.ID]vr.Class{car: 1, p1: 0, p2: 0}
	var sets []vr.Frame
	for i := 0; i < 30; i++ {
		var f vr.Frame
		f.FID = vr.FrameID(i)
		f.Classes = classes
		switch {
		case i >= 5 && i < 25: // joint presence for 20 frames
			f.Objects = objset.New(car, p1, p2)
		case i < 5:
			f.Objects = objset.New(car)
		default:
			f.Objects = objset.New(p1)
		}
		sets = append(sets, f)
	}
	q := mkQuery(t, 1, "car >= 1 AND person >= 2", 20, 15)
	e, err := New([]cnf.Query{q}, Options{Method: MethodSSG, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, f := range sets {
		if ms := e.ProcessFrame(f); len(ms) > 0 {
			matched = true
			for _, m := range ms {
				if len(m.Frames) < 15 {
					t.Fatalf("match below duration: %+v", m)
				}
			}
		}
	}
	if !matched {
		t.Fatal("surveillance scenario never matched")
	}
}

// TestProcessFrameKeepsEvaluatorSlice pins that a frame one window group
// matched costs what the group's generator allocates plus the
// evaluator's []Match and nothing more: the state's frame list slides
// in its frame log, and the engine returns the evaluator's slice
// instead of copying it.
// A twin engine fed the same frames runs only its generator, which
// prices the generator's share; the class filter is off in both, so the
// filtered copy of a frame's set is not counted.
func TestProcessFrameKeepsEvaluatorSlice(t *testing.T) {
	qs := []cnf.Query{
		mkQuery(t, 1, "person >= 1", 10, 2),
		mkQuery(t, 2, "person >= 2", 10, 2),
		mkQuery(t, 3, "(car >= 1 OR person >= 3)", 10, 2),
	}
	person := vr.StandardRegistry().Class("person")
	const warm, runs = 40, 50
	frames := make([]vr.Frame, warm+runs+1)
	for i := range frames {
		frames[i] = vr.Frame{
			FID:     vr.FrameID(i),
			Objects: objset.New(1, 2, 3),
			Classes: map[objset.ID]vr.Class{1: person, 2: person, 3: person},
		}
	}
	eng, err := New(qs, Options{KeepAllClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(qs, Options{KeepAllClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.groups) != 1 {
		t.Fatalf("%d window groups, want 1", len(eng.groups))
	}
	for _, f := range frames[:warm] {
		eng.ProcessFrame(f)
		twin.ProcessFrame(f)
	}
	next, matched := warm, 0
	full := testing.AllocsPerRun(runs, func() {
		matched += len(eng.ProcessFrame(frames[next]))
		next++
	})
	next = warm
	gen := testing.AllocsPerRun(runs, func() {
		twin.groups[0].gen.Process(frames[next])
		next++
	})
	if matched != 3*(runs+1) {
		t.Fatalf("%d matches over %d frames, want 3 per frame", matched, runs+1)
	}
	if full > gen+1 {
		t.Errorf("ProcessFrame allocates %.0f times per frame, the generator alone %.0f: want at most 1 more (the []Match; the state's frame log is refilled once in 11 frames)", full, gen)
	}
}

// TestFilterSetAllocatesOnlyWhenDropping: a set whose classes the group
// keeps comes back as itself, not owned and without an allocation; one
// with a dropped id comes back as the kept ids, in a fresh set the
// frame may hand over as owned. Sparse and dense sets both.
func TestFilterSetAllocatesOnlyWhenDropping(t *testing.T) {
	reg := vr.StandardRegistry()
	person, car, truck := reg.Class("person"), reg.Class("car"), reg.Class("truck")
	keep := map[vr.Class]bool{person: true, car: true}
	classes := map[objset.ID]vr.Class{}
	var all, kept []objset.ID
	for id := objset.ID(0); id < 200; id++ {
		c := []vr.Class{person, car}[id%2]
		if id%7 == 3 {
			c = truck
		}
		classes[id] = c
		all = append(all, id)
		if keep[c] {
			kept = append(kept, id)
		}
	}
	for _, ids := range [][]objset.ID{kept[:5], kept, {5}} {
		for _, s := range []objset.Set{objset.New(ids...), objset.Compact(objset.New(ids...))} {
			if n := testing.AllocsPerRun(20, func() { filterSet(s, classes, keep) }); n != 0 {
				t.Errorf("filterSet of %d kept ids allocates %.0f times", s.Len(), n)
			}
			if got, fresh := filterSet(s, classes, keep); fresh || !got.Equal(s) {
				t.Errorf("filterSet of %d kept ids = %v, fresh %v", s.Len(), got, fresh)
			}
		}
	}
	for _, ids := range [][]objset.ID{all[:6], all, {3}, {3, 4}} {
		want := []objset.ID{}
		for _, id := range ids {
			if keep[classes[id]] {
				want = append(want, id)
			}
		}
		for _, s := range []objset.Set{objset.New(ids...), objset.Compact(objset.New(ids...))} {
			if got, fresh := filterSet(s, classes, keep); !fresh || !got.Equal(objset.New(want...)) {
				t.Errorf("filterSet of %v = %v, fresh %v; want %v, fresh", ids, got, fresh, want)
			}
		}
	}
}
