package engine

import (
	"fmt"
	"reflect"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/vr"
)

// steadyFeed produces frames where objects 1 (person) and 2 (car) are
// always present, so any reasonable query matches predictably.
func steadyFeed(n int) []vr.Frame {
	classes := map[objset.ID]vr.Class{1: 0, 2: 1, 3: 0}
	frames := make([]vr.Frame, n)
	for i := range frames {
		s := objset.New(1, 2)
		if i%2 == 0 {
			s = objset.New(1, 2, 3)
		}
		frames[i] = vr.Frame{FID: vr.FrameID(i), Objects: s, Classes: classes}
	}
	return frames
}

func TestTumblingWindows(t *testing.T) {
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 10, 5)}
	eng, err := New(qs, Options{Windows: Tumbling})
	if err != nil {
		t.Fatal(err)
	}
	var matchFIDs []vr.FrameID
	for _, f := range steadyFeed(40) {
		if ms := eng.ProcessFrame(f); len(ms) > 0 {
			matchFIDs = append(matchFIDs, f.FID)
		}
	}
	want := []vr.FrameID{9, 19, 29, 39}
	if !reflect.DeepEqual(matchFIDs, want) {
		t.Fatalf("tumbling match frames = %v, want %v", matchFIDs, want)
	}
}

func TestTumblingMatchesSubsetOfSliding(t *testing.T) {
	tr := smallTrace(t, 21)
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 12, 6)}
	slide, _ := New(qs, Options{})
	tumble, _ := New(qs, Options{Windows: Tumbling})
	for _, f := range tr.Frames() {
		sm := slide.ProcessFrame(f)
		tm := tumble.ProcessFrame(f)
		if (f.FID+1)%12 != 0 {
			if len(tm) != 0 {
				t.Fatalf("tumbling emitted mid-block at frame %d", f.FID)
			}
			continue
		}
		// At block boundaries both see the same window.
		if len(sm) != len(tm) {
			t.Fatalf("frame %d: sliding %d matches, tumbling %d", f.FID, len(sm), len(tm))
		}
	}
}

func TestAddQuerySameWindow(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	for _, f := range feed[:10] {
		eng.ProcessFrame(f)
	}
	if err := eng.AddQuery(mkQuery(t, 2, "person >= 1", 10, 5)); err != nil {
		t.Fatal(err)
	}
	if len(eng.groups) != 1 {
		t.Fatalf("groups = %d, want 1 (shared window)", len(eng.groups))
	}
	// The new query references a class the old filter dropped, so the
	// group restarts; both queries match once d=5 frames re-accumulate.
	seen := map[int]bool{}
	for _, f := range feed[10:20] {
		for _, m := range eng.ProcessFrame(f) {
			seen[m.QueryID] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("matches after add = %v, want both queries", seen)
	}
}

func TestAddQuerySharedHistoryWhenNoRestartNeeded(t *testing.T) {
	// Both queries reference the same class and duration, so the new one
	// reuses the group's history and matches on the very next frame.
	eng, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	for _, f := range feed[:10] {
		eng.ProcessFrame(f)
	}
	if err := eng.AddQuery(mkQuery(t, 2, "car >= 1", 10, 7)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, m := range eng.ProcessFrame(feed[10]) {
		seen[m.QueryID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("matches after add = %v, want both immediately", seen)
	}
}

func TestAddQueryNewWindow(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(40)
	for _, f := range feed[:20] {
		eng.ProcessFrame(f)
	}
	if err := eng.AddQuery(mkQuery(t, 2, "person >= 1", 6, 3)); err != nil {
		t.Fatal(err)
	}
	if len(eng.groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(eng.groups))
	}
	var q2frames []vr.FrameID
	for _, f := range feed[20:] {
		for _, m := range eng.ProcessFrame(f) {
			if m.QueryID == 2 {
				// Frame ids in matches must be feed-relative, not
				// generator-relative.
				for _, fid := range m.Frames {
					if fid < 20 {
						t.Fatalf("match frame %d predates query registration", fid)
					}
				}
				q2frames = append(q2frames, f.FID)
			}
		}
	}
	if len(q2frames) == 0 {
		t.Fatal("late-registered query never matched")
	}
	// First possible match: 3 frames after registration (d=3).
	if q2frames[0] < 22 {
		t.Fatalf("query 2 matched too early: %v", q2frames[0])
	}
}

func TestAddQueryValidation(t *testing.T) {
	eng, _ := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err := eng.AddQuery(mkQuery(t, 1, "person >= 1", 10, 5)); err == nil {
		t.Error("duplicate id accepted")
	}
	bad := mkQuery(t, 2, "person >= 1", 10, 5)
	bad.Duration = 99
	if err := eng.AddQuery(bad); err == nil {
		t.Error("invalid query accepted")
	}
	pruned, _ := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{Prune: true})
	if err := pruned.AddQuery(mkQuery(t, 2, "person >= 1", 10, 5)); err == nil {
		t.Error("AddQuery accepted under pruning")
	}
}

func TestAddQueryLoosensDuration(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "person >= 1", 10, 8)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	for _, f := range feed[:10] {
		eng.ProcessFrame(f)
	}
	// d=2 < group push-down 8: the group restarts to honor it.
	if err := eng.AddQuery(mkQuery(t, 2, "person >= 1", 10, 2)); err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, f := range feed[10:] {
		for _, m := range eng.ProcessFrame(f) {
			if m.QueryID == 2 {
				matched = true
				if len(m.Frames) < 2 {
					t.Fatalf("match below duration: %+v", m)
				}
			}
		}
	}
	if !matched {
		t.Fatal("loose-duration query never matched after group restart")
	}
}

func TestRemoveQuery(t *testing.T) {
	eng, err := New([]cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "person >= 1", 10, 5),
		mkQuery(t, 3, "person >= 1", 20, 5),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.groups) != 2 {
		t.Fatalf("groups = %d", len(eng.groups))
	}
	ok, err := eng.RemoveQuery(3)
	if err != nil || !ok {
		t.Fatalf("RemoveQuery(3) = %v, %v", ok, err)
	}
	if len(eng.groups) != 1 {
		t.Errorf("empty group not dropped: %d", len(eng.groups))
	}
	ok, _ = eng.RemoveQuery(3)
	if ok {
		t.Error("second removal reported found")
	}
	if _, err := eng.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(20)
	for _, f := range feed {
		for _, m := range eng.ProcessFrame(f) {
			if m.QueryID != 2 {
				t.Fatalf("removed query still matching: %+v", m)
			}
		}
	}
	if got := len(eng.Queries()); got != 1 {
		t.Errorf("Queries() = %d, want 1", got)
	}
}

func TestIdentityQueriesEndToEnd(t *testing.T) {
	// "#2 AND person >= 1": the specific car (id 2) together with any
	// person. Object 2 is a car present in every frame.
	eng, err := New([]cnf.Query{mkQuery(t, 1, "#2 AND person >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, f := range steadyFeed(20) {
		for _, m := range eng.ProcessFrame(f) {
			matched++
			if !m.Objects.Contains(2) {
				t.Fatalf("identity constraint violated: %v", m.Objects)
			}
		}
	}
	if matched == 0 {
		t.Fatal("identity query never matched")
	}

	// An id that never appears must never match.
	eng2, _ := New([]cnf.Query{mkQuery(t, 1, "#99", 10, 2)}, Options{})
	for _, f := range steadyFeed(20) {
		if ms := eng2.ProcessFrame(f); len(ms) != 0 {
			t.Fatalf("ghost identity matched: %+v", ms)
		}
	}
}

func TestIdentityQueriesWithPruning(t *testing.T) {
	// Identity constraints are subset-monotone, so §5.3 pruning applies.
	qs := []cnf.Query{mkQuery(t, 1, "#2 AND person >= 1", 10, 5)}
	plain, _ := New(qs, Options{})
	pruned, err := New(qs, Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range steadyFeed(25) {
		a := plain.ProcessFrame(f)
		b := pruned.ProcessFrame(f)
		if len(a) != len(b) {
			t.Fatalf("frame %d: pruning changed results (%d vs %d)", f.FID, len(a), len(b))
		}
	}
}

// TestAddedGroupSharedBodyFrameIDs is the regression test for the group
// offset: a window group added to a running engine numbers its frames
// from its own start, and its matches must report engine frame ids.
// All matches of one state share one frame list, so an offset applied
// per match instead of once per list moves the ids once per subscriber
// — invisible with one query per body, which is all the older tests
// have. Two subscribers on one body in a group that starts at frame 40
// must report exactly what a fresh engine over the re-based suffix
// reports, shifted by 40.
func TestAddedGroupSharedBodyFrameIDs(t *testing.T) {
	const cut = 40
	frames := smallTrace(t, 21).Frames()
	render := func(fid vr.FrameID, m query.Match, shift vr.FrameID) string {
		shifted := make([]vr.FrameID, len(m.Frames))
		for i, f := range m.Frames {
			shifted[i] = f + shift
		}
		return fmt.Sprintf("%d|q%d|%v|%v", fid+shift, m.QueryID, m.Objects, shifted)
	}
	twins := []cnf.Query{mkQuery(t, 2, "person >= 1", 6, 3), mkQuery(t, 3, "person >= 1", 6, 3)}

	live, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:cut] {
		live.ProcessFrame(f)
	}
	for _, q := range twins {
		if err := live.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(live.groups) != 2 {
		t.Fatalf("groups = %d, want 2: the twins must share one added group", len(live.groups))
	}
	var got []string
	for _, f := range frames[cut:] {
		for _, m := range live.ProcessFrame(f) {
			if m.QueryID != 1 {
				got = append(got, render(f.FID, m, 0))
			}
		}
	}

	fresh, err := New(twins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, f := range frames[cut:] {
		f.FID = vr.FrameID(i)
		for _, m := range fresh.ProcessFrame(f) {
			want = append(want, render(f.FID, m, cut))
		}
	}
	if len(want) == 0 {
		t.Fatal("the fresh run matched nothing; the test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("added group reports other frame ids than a fresh run shifted by %d:\n got %v\nwant %v", cut, got[:min(3, len(got))], want[:3])
	}
}
