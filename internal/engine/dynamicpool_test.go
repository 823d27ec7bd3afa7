package engine

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/vr"
)

// poolFrameKeys runs one batch and returns per-frame sorted match keys.
// Sorting inside a frame makes the comparison robust to cross-query
// match ordering, which is unspecified once queries are added
// dynamically (a single engine appends new window groups at the end of
// its iteration order; a pool routes them to a shard).
func poolFrameKeys(rs []FeedResult) []string {
	var out []string
	for _, r := range rs {
		keys := make([]string, 0, len(r.Matches))
		for _, m := range r.Matches {
			keys = append(keys, matchKey(m))
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, fmt.Sprintf("f%d@%d:%s", r.Feed, r.FID, k))
		}
	}
	return out
}

// TestPoolAddQueryByFeed checks that a ShardByFeed pool with a mid-run
// AddQuery/RemoveQuery schedule reproduces, per feed, a dedicated
// single engine following the same schedule.
func TestPoolAddQueryByFeed(t *testing.T) {
	const feeds = 3
	traces := make([]*vr.Trace, feeds)
	for i := range traces {
		traces[i] = smallTrace(t, int64(40+i))
	}
	base := []cnf.Query{mkQuery(t, 1, "car >= 1 AND person >= 1", 12, 6)}
	added := mkQuery(t, 2, "person >= 1", 8, 4)

	// Reference: per-feed single engines with the same schedule.
	want := make([][]string, feeds)
	for feed, tr := range traces {
		eng, err := New(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tr.Frames() {
			if f.FID == 20 {
				if err := eng.AddQuery(added); err != nil {
					t.Fatal(err)
				}
			}
			if f.FID == 60 {
				if _, err := eng.RemoveQuery(1); err != nil {
					t.Fatal(err)
				}
			}
			var keys []string
			for _, m := range eng.ProcessFrame(f) {
				keys = append(keys, matchKey(m))
			}
			sort.Strings(keys)
			for _, k := range keys {
				want[feed] = append(want[feed], fmt.Sprintf("f%d@%d:%s", feed, f.FID, k))
			}
		}
	}

	pool, err := NewPool(base, PoolOptions{Workers: 2, Mode: ShardByFeed})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	got := make([][]string, feeds)
	maxLen := 0
	for _, tr := range traces {
		if tr.Len() > maxLen {
			maxLen = tr.Len()
		}
	}
	for fi := 0; fi < maxLen; fi++ {
		if fi == 20 {
			if err := pool.AddQuery(added); err != nil {
				t.Fatal(err)
			}
		}
		if fi == 60 {
			if ok, err := pool.RemoveQuery(1); !ok || err != nil {
				t.Fatalf("RemoveQuery(1) = %v, %v", ok, err)
			}
		}
		var batch []FeedFrame
		for feed, tr := range traces {
			if fi < tr.Len() {
				batch = append(batch, FeedFrame{Feed: FeedID(feed), Frame: tr.Frame(fi)})
			}
		}
		for _, r := range pool.ProcessBatch(batch) {
			keys := make([]string, 0, len(r.Matches))
			for _, m := range r.Matches {
				keys = append(keys, matchKey(m))
			}
			sort.Strings(keys)
			for _, k := range keys {
				got[r.Feed] = append(got[r.Feed], fmt.Sprintf("f%d@%d:%s", r.Feed, r.FID, k))
			}
		}
	}
	for feed := range traces {
		if !equalStrings(got[feed], want[feed]) {
			t.Errorf("feed %d: pool diverges from single engine: %s", feed, firstDiff(got[feed], want[feed]))
		}
		if len(want[feed]) == 0 {
			t.Errorf("feed %d produced no matches; test is vacuous", feed)
		}
	}

	// A feed first seen after the dynamic registration starts with the
	// full query set from its frame 0.
	late := smallTrace(t, 99)
	lateEng, err := New([]cnf.Query{added}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lateWant, lateGot []string
	for _, f := range late.Frames() {
		for _, m := range lateEng.ProcessFrame(f) {
			lateWant = append(lateWant, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
		}
		for _, r := range pool.ProcessBatch([]FeedFrame{{Feed: 7, Frame: f}}) {
			for _, m := range r.Matches {
				lateGot = append(lateGot, fmt.Sprintf("%d:%s", r.FID, matchKey(m)))
			}
		}
	}
	if !equalStrings(lateGot, lateWant) {
		t.Errorf("late feed diverges: %s", firstDiff(lateGot, lateWant))
	}
}

// TestPoolAddQueryByGroup checks dynamic registration on a
// window-group-sharded pool: joining an existing window, opening a new
// one, and removal must all match a single engine with the same
// schedule (comparing per-frame match sets).
func TestPoolAddQueryByGroup(t *testing.T) {
	tr := smallTrace(t, 77)
	base := []cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "person >= 1", 16, 8),
	}
	joinExisting := mkQuery(t, 3, "truck >= 1", 16, 8) // shares window 16
	newWindow := mkQuery(t, 4, "person >= 1 AND car >= 1", 7, 3)

	schedule := func(fi int, addQ func(cnf.Query) error, rm func(int) (bool, error)) error {
		switch fi {
		case 15:
			return addQ(joinExisting)
		case 30:
			return addQ(newWindow)
		case 55:
			_, err := rm(2)
			return err
		}
		return nil
	}

	// Reference single engine.
	eng, err := New(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range tr.Frames() {
		if err := schedule(int(f.FID), eng.AddQuery, eng.RemoveQuery); err != nil {
			t.Fatal(err)
		}
		keys := []string{}
		for _, m := range eng.ProcessFrame(f) {
			keys = append(keys, matchKey(m))
		}
		sort.Strings(keys)
		for _, k := range keys {
			want = append(want, fmt.Sprintf("%d:%s", f.FID, k))
		}
	}

	pool, err := NewPool(base, PoolOptions{Workers: 2, Mode: ShardByGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var got []string
	for _, f := range tr.Frames() {
		if err := schedule(int(f.FID), pool.AddQuery, pool.RemoveQuery); err != nil {
			t.Fatal(err)
		}
		got = append(got, poolFrameKeys(pool.ProcessBatch([]FeedFrame{{Frame: f}}))...)
	}
	// poolFrameKeys prefixes "f0@"; align the reference.
	for i := range want {
		want[i] = "f0@" + want[i]
	}
	if !equalStrings(got, want) {
		t.Errorf("group-sharded pool diverges from single engine: %s", firstDiff(got, want))
	}
	if len(want) == 0 {
		t.Error("workload produced no matches; test is vacuous")
	}
	if got := len(pool.Queries()); got != 3 {
		t.Errorf("Queries() = %d after add+add+remove, want 3", got)
	}
}

// TestPoolAddQueryValidation covers the typed failure modes and the
// empty-pool serving shape.
func TestPoolAddQueryValidation(t *testing.T) {
	qs := []cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}
	pool, err := NewPool(qs, PoolOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.AddQuery(mkQuery(t, 1, "person >= 1", 10, 5)); !errors.Is(err, ErrDuplicateQuery) {
		t.Errorf("duplicate id: err = %v, want ErrDuplicateQuery", err)
	}
	if ok, err := pool.RemoveQuery(42); ok || err != nil {
		t.Errorf("RemoveQuery(42) = %v, %v", ok, err)
	}

	pruned, err := NewPool(qs, PoolOptions{Workers: 2, Engine: Options{Prune: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer pruned.Close()
	if err := pruned.AddQuery(mkQuery(t, 2, "person >= 1", 10, 5)); !errors.Is(err, ErrPruningIncompatible) {
		t.Errorf("pruned pool: err = %v, want ErrPruningIncompatible", err)
	}

	// Empty group-sharded pool: all requested shards stay available for
	// dynamic windows.
	empty, err := NewPool(nil, PoolOptions{Workers: 3, Mode: ShardByGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if empty.Workers() != 3 {
		t.Fatalf("empty pool Workers = %d, want 3", empty.Workers())
	}
	for i, q := range []cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "person >= 1", 12, 5),
		mkQuery(t, 3, "truck >= 1", 14, 5),
	} {
		if err := empty.AddQuery(q); err != nil {
			t.Fatalf("AddQuery %d: %v", i, err)
		}
	}
	// Three distinct windows over three shards: least-loaded routing
	// must have spread them one per shard.
	for i, w := range empty.workers {
		if n := len(w.eng.Queries()); n != 1 {
			t.Errorf("shard %d holds %d queries, want 1", i, n)
		}
	}
}

// TestPoolSnapshotWithDynamicQueries closes the loop with the restore
// shell: a pool whose query set changed at runtime must survive
// snapshot→restore and continue exactly.
func TestPoolSnapshotWithDynamicQueries(t *testing.T) {
	tr := smallTrace(t, 31)
	base := []cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}
	for _, mode := range []ShardMode{ShardByFeed, ShardByGroup} {
		pool, err := NewPool(base, PoolOptions{Workers: 2, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		collect := func(rs []FeedResult) {
			got = append(got, poolFrameKeys(rs)...)
		}
		cut := tr.Len() / 2
		for _, f := range tr.Frames()[:cut] {
			if f.FID == 10 {
				if err := pool.AddQuery(mkQuery(t, 2, "person >= 1", 7, 3)); err != nil {
					t.Fatal(err)
				}
			}
			collect(pool.ProcessBatch([]FeedFrame{{Frame: f}}))
		}
		buf := snapFile(t, pool)
		pool.Close()
		restored, err := restoreFile(buf, PoolOptions{})
		if err != nil {
			t.Fatalf("mode %d: Restore: %v", mode, err)
		}
		for _, f := range tr.Frames()[cut:] {
			collect(restored.Process([]FeedFrame{{Frame: f}}))
		}
		restored.Close()

		// Reference: uninterrupted pool with the same schedule.
		ref, err := NewPool(base, PoolOptions{Workers: 2, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, f := range tr.Frames() {
			if f.FID == 10 {
				if err := ref.AddQuery(mkQuery(t, 2, "person >= 1", 7, 3)); err != nil {
					t.Fatal(err)
				}
			}
			want = append(want, poolFrameKeys(ref.ProcessBatch([]FeedFrame{{Frame: f}}))...)
		}
		ref.Close()
		if !equalStrings(got, want) {
			t.Errorf("mode %d: resumed pool diverges: %s", mode, firstDiff(got, want))
		}
		if len(want) == 0 {
			t.Errorf("mode %d: no matches; test is vacuous", mode)
		}
	}
}
