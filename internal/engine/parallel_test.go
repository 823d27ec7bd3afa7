package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"tvq/internal/cnf"
	"tvq/internal/query"
	"tvq/internal/vr"
)

// poolQueries is a workload spanning three window sizes, so group
// sharding has something to partition.
func poolQueries(t *testing.T) []cnf.Query {
	t.Helper()
	return []cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "person >= 1", 10, 4),
		mkQuery(t, 3, "car >= 2", 16, 8),
		mkQuery(t, 4, "person >= 1 AND car >= 1", 16, 6),
		mkQuery(t, 5, "(person >= 2 OR truck >= 1) AND car >= 1", 24, 8),
	}
}

func TestNewPoolValidation(t *testing.T) {
	// An empty query set is a valid serving-shaped pool: frames flow,
	// nothing matches, queries arrive later via Pool.AddQuery.
	empty, err := NewPool(nil, PoolOptions{Workers: 2})
	if err != nil {
		t.Fatalf("empty query set rejected: %v", err)
	}
	defer empty.Close()
	if rs := empty.ProcessBatch([]FeedFrame{{Feed: 0}, {Feed: 1}}); len(rs) != 0 {
		t.Errorf("empty pool produced matches: %v", rs)
	}
	qs := poolQueries(t)
	if _, err := NewPool(qs, PoolOptions{Mode: ShardMode(99)}); err == nil {
		t.Error("bogus shard mode accepted")
	}
	if _, err := NewPool(qs, PoolOptions{Engine: Options{Method: "bogus"}}); err == nil {
		t.Error("bogus engine method accepted")
	}
	p, err := NewPool(qs, PoolOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Workers() != 3 {
		t.Errorf("Workers = %d, want 3", p.Workers())
	}
	// Group mode cannot use more shards than distinct windows (3 here).
	pg, err := NewPool(qs, PoolOptions{Workers: 8, Mode: ShardByGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	if pg.Workers() != 3 {
		t.Errorf("group-mode Workers = %d, want 3 (distinct windows)", pg.Workers())
	}
}

func TestPartitionByWindow(t *testing.T) {
	qs := poolQueries(t) // windows 10(x2), 16(x2), 24(x1)
	parts := partitionByWindow(qs, 2)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	total := 0
	lastMax := 0
	for _, part := range parts {
		if len(part) == 0 {
			t.Fatal("empty shard")
		}
		minW, maxW := part[0].Window, part[0].Window
		for _, q := range part {
			total++
			if q.Window < minW {
				minW = q.Window
			}
			if q.Window > maxW {
				maxW = q.Window
			}
		}
		if minW < lastMax {
			t.Fatalf("shard windows overlap previous shard: min %d after max %d", minW, lastMax)
		}
		lastMax = maxW
	}
	if total != len(qs) {
		t.Fatalf("partition lost queries: %d of %d", total, len(qs))
	}
}

// singleEngineResults runs the baseline: one engine over one trace,
// keyed per frame for comparison.
func singleEngineResults(t *testing.T, tr *vr.Trace, qs []cnf.Query, opts Options) []FrameResult {
	t.Helper()
	eng, err := New(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []FrameResult
	for _, f := range tr.Frames() {
		if ms := eng.ProcessFrame(f); len(ms) > 0 {
			out = append(out, FrameResult{FID: f.FID, Matches: ms})
		}
	}
	return out
}

func resultKeys(ms []query.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = matchKey(m)
	}
	return keys
}

// TestPoolGroupModeByteIdentical: window-group sharding must reproduce
// the single engine's matches exactly — same frames, same matches, same
// order within each frame — across arbitrary batch splits.
func TestPoolGroupModeByteIdentical(t *testing.T) {
	tr := smallTrace(t, 21)
	qs := poolQueries(t)
	want := singleEngineResults(t, tr, qs, Options{})

	for _, batch := range []int{1, 7, 64} {
		p, err := NewPool(qs, PoolOptions{Workers: 3, Mode: ShardByGroup})
		if err != nil {
			t.Fatal(err)
		}
		var got []FeedResult
		frames := tr.Frames()
		for lo := 0; lo < len(frames); lo += batch {
			hi := lo + batch
			if hi > len(frames) {
				hi = len(frames)
			}
			ffs := make([]FeedFrame, 0, hi-lo)
			for _, f := range frames[lo:hi] {
				ffs = append(ffs, FeedFrame{Frame: f})
			}
			got = append(got, p.ProcessBatch(ffs)...)
		}
		p.Close()

		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d matching frames, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i].FID != want[i].FID {
				t.Fatalf("batch=%d: frame %d is %d, want %d", batch, i, got[i].FID, want[i].FID)
			}
			if !reflect.DeepEqual(resultKeys(got[i].Matches), resultKeys(want[i].Matches)) {
				t.Fatalf("batch=%d: frame %d matches differ:\n got %v\nwant %v",
					batch, got[i].FID, resultKeys(got[i].Matches), resultKeys(want[i].Matches))
			}
		}
	}
}

// TestPoolFeedModeByteIdentical: feed sharding must give every feed
// exactly the matches a dedicated engine would produce, and deliver
// results in ingestion order.
func TestPoolFeedModeByteIdentical(t *testing.T) {
	qs := poolQueries(t)
	const feeds = 3
	traces := make([]*vr.Trace, feeds)
	want := make([][]FrameResult, feeds)
	for i := range traces {
		traces[i] = smallTrace(t, int64(31+i))
		want[i] = singleEngineResults(t, traces[i], qs, Options{})
	}

	// Interleave the feeds round-robin, as a multiplexed camera stream
	// would arrive.
	var input []FeedFrame
	for fi := 0; ; fi++ {
		any := false
		for feed := 0; feed < feeds; feed++ {
			if fi < traces[feed].Len() {
				input = append(input, FeedFrame{Feed: FeedID(feed), Frame: traces[feed].Frame(fi)})
				any = true
			}
		}
		if !any {
			break
		}
	}

	p, err := NewPool(qs, PoolOptions{Workers: 2, Mode: ShardByFeed})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var got []FeedResult
	for lo := 0; lo < len(input); lo += 50 {
		hi := lo + 50
		if hi > len(input) {
			hi = len(input)
		}
		got = append(got, p.ProcessBatch(input[lo:hi])...)
	}

	// Ingestion order: results must be a subsequence of the input.
	pos := 0
	for _, r := range got {
		for pos < len(input) && (input[pos].Feed != r.Feed || input[pos].Frame.FID != r.FID) {
			pos++
		}
		if pos == len(input) {
			t.Fatalf("result (feed %d, fid %d) out of ingestion order", r.Feed, r.FID)
		}
		pos++
	}

	// Per-feed equality with the dedicated-engine baseline.
	perFeed := make([][]FeedResult, feeds)
	for _, r := range got {
		perFeed[r.Feed] = append(perFeed[r.Feed], r)
	}
	for feed := 0; feed < feeds; feed++ {
		if len(perFeed[feed]) != len(want[feed]) {
			t.Fatalf("feed %d: %d matching frames, want %d", feed, len(perFeed[feed]), len(want[feed]))
		}
		for i, w := range want[feed] {
			g := perFeed[feed][i]
			if g.FID != w.FID || !reflect.DeepEqual(resultKeys(g.Matches), resultKeys(w.Matches)) {
				t.Fatalf("feed %d frame %d: matches differ", feed, w.FID)
			}
		}
	}
}

// TestPoolGoroutineHygiene: Close must reap every worker goroutine.
func TestPoolGoroutineHygiene(t *testing.T) {
	qs := poolQueries(t)
	tr := smallTrace(t, 47)
	before := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		p, err := NewPool(qs, PoolOptions{Workers: 4, Mode: ShardByFeed})
		if err != nil {
			t.Fatal(err)
		}
		// Every worker gets a feed, so every goroutine has run a job.
		for _, f := range tr.Frames() {
			p.ProcessBatch([]FeedFrame{{Feed: 0, Frame: f}, {Feed: 1, Frame: f}, {Feed: 2, Frame: f}, {Feed: 3, Frame: f}})
		}
		p.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestNewPoolErrorLeavesNoWorkers: a shard whose engine construction
// fails (duplicate query id confined to a later window group) must make
// NewPool error out without stranding goroutines for earlier shards.
func TestNewPoolErrorLeavesNoWorkers(t *testing.T) {
	qs := []cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "person >= 1", 20, 5),
		mkQuery(t, 2, "truck >= 1", 20, 5), // duplicate id, second shard only
	}
	before := runtime.NumGoroutine()
	if _, err := NewPool(qs, PoolOptions{Workers: 2, Mode: ShardByGroup}); err == nil {
		t.Fatal("duplicate query id accepted")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("failed NewPool leaked goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// TestPoolCloseIdempotent: double Close must not panic.
func TestPoolCloseIdempotent(t *testing.T) {
	p, err := NewPool(poolQueries(t), PoolOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
}

// TestPoolStateCount: instrumentation should see states in both modes.
func TestPoolStateCount(t *testing.T) {
	tr := smallTrace(t, 53)
	qs := poolQueries(t)
	for _, mode := range []ShardMode{ShardByFeed, ShardByGroup} {
		p, err := NewPool(qs, PoolOptions{Workers: 2, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		ffs := make([]FeedFrame, 0, tr.Len())
		for _, f := range tr.Frames() {
			ffs = append(ffs, FeedFrame{Frame: f})
		}
		p.ProcessBatch(ffs)
		if p.StateCount() <= 0 {
			t.Errorf("mode %d: StateCount = %d, want > 0", mode, p.StateCount())
		}
		p.Close()
	}
}

// TestPoolGroupDispatchAllocFree pins what a ShardByGroup batch costs
// the pool itself: on a warm two-shard pool of each method, a batch of
// empty frames, which no engine matches and no generator keeps,
// allocates nothing. The jobs, their result columns and the WaitGroup
// are the pool's, kept from batch to batch, and a generator's Process
// of an empty frame allocates nothing either.
func TestPoolGroupDispatchAllocFree(t *testing.T) {
	for _, m := range []Method{MethodNaive, MethodMFS, MethodSSG} {
		t.Run(string(m), func(t *testing.T) {
			p, err := NewPool(poolQueries(t), PoolOptions{Workers: 2, Mode: ShardByGroup, Engine: Options{Method: m}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if p.Workers() != 2 {
				t.Fatalf("%d shards, want 2", p.Workers())
			}
			batch := make([]FeedFrame, 8)
			next := vr.FrameID(0)
			feed := func() {
				for i := range batch {
					batch[i] = FeedFrame{Frame: vr.Frame{FID: next}}
					next++
				}
				if res := p.ProcessBatch(batch); len(res) != 0 {
					t.Fatalf("empty frames matched: %v", res)
				}
			}
			for i := 0; i < 4; i++ {
				feed()
			}
			if n := testing.AllocsPerRun(100, feed); n != 0 {
				t.Errorf("a warm batch of empty frames allocates %.1f times, want 0", n)
			}
		})
	}
}

// TestPoolFeedDispatchAllocFree pins what a ShardByFeed batch that
// spans shards costs the pool itself: on a warm two-shard pool of each
// method, a batch of empty frames over two feeds, one on each shard,
// allocates nothing, which is all the batch hands back. The result
// column, the jobs with their frame and index lists, and the WaitGroup
// are the pool's, kept from batch to batch.
func TestPoolFeedDispatchAllocFree(t *testing.T) {
	for _, m := range []Method{MethodNaive, MethodMFS, MethodSSG} {
		t.Run(string(m), func(t *testing.T) {
			p, err := NewPool(poolQueries(t), PoolOptions{Workers: 2, Mode: ShardByFeed, Engine: Options{Method: m}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			batch := make([]FeedFrame, 8)
			next := [2]vr.FrameID{}
			feed := func() {
				for i := range batch {
					f := FeedID(i % 2)
					batch[i] = FeedFrame{Feed: f, Frame: vr.Frame{FID: next[f]}}
					next[f]++
				}
				if _, one := p.oneShard(batch); one {
					t.Fatal("the batch maps to one shard")
				}
				if res := p.ProcessBatch(batch); len(res) != 0 {
					t.Fatalf("empty frames matched: %v", res)
				}
			}
			for i := 0; i < 4; i++ {
				feed()
			}
			if n := testing.AllocsPerRun(100, feed); n != 0 {
				t.Errorf("a warm two-feed batch of empty frames allocates %.1f times, want 0", n)
			}
		})
	}
}

// TestMatchesConcatenateInGroupOrder: when more than one window group
// (or group shard) matches a frame, the frame's matches are the groups'
// matches back to back in ascending window order, exactly as engines
// holding one group each return them; when one contributes, they are
// its matches alone.
func TestMatchesConcatenateInGroupOrder(t *testing.T) {
	tr := smallTrace(t, 29)
	narrow := []cnf.Query{mkQuery(t, 1, "car >= 1", 10, 4), mkQuery(t, 2, "person >= 1", 10, 4)}
	wide := []cnf.Query{mkQuery(t, 3, "car >= 1", 24, 8), mkQuery(t, 4, "person >= 1 AND car >= 1", 24, 6)}
	qs := append(append([]cnf.Query(nil), narrow...), wide...)
	parts := make([]*Engine, 2)
	for i, part := range [][]cnf.Query{narrow, wide} {
		eng, err := New(part, Options{})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = eng
	}
	eng, err := New(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(qs, PoolOptions{Workers: 2, Mode: ShardByGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Workers() != 2 {
		t.Fatalf("pool has %d shards, want 2", p.Workers())
	}

	var both, one int
	want := make(map[vr.FrameID][]string)
	for _, f := range tr.Frames() {
		a, b := parts[0].ProcessFrame(f), parts[1].ProcessFrame(f)
		if len(a) > 0 && len(b) > 0 {
			both++
		} else if len(a)+len(b) > 0 {
			one++
		}
		keys := resultKeys(append(append([]query.Match(nil), a...), b...))
		if got := resultKeys(eng.ProcessFrame(f)); !reflect.DeepEqual(got, keys) {
			t.Fatalf("engine, frame %d:\n got %v\nwant %v", f.FID, got, keys)
		}
		if len(keys) > 0 {
			want[f.FID] = keys
		}
	}
	if both == 0 || one == 0 {
		t.Fatalf("%d frames matched by both groups and %d by one: want some of each", both, one)
	}

	got := make(map[vr.FrameID][]string)
	frames := tr.Frames()
	for lo := 0; lo < len(frames); lo += 7 {
		ffs := make([]FeedFrame, 0, 7)
		for _, f := range frames[lo:min(lo+7, len(frames))] {
			ffs = append(ffs, FeedFrame{Frame: f})
		}
		for _, r := range p.ProcessBatch(ffs) {
			got[r.FID] = resultKeys(r.Matches)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pool matches differ from the groups' concatenation:\n got %v\nwant %v", got, want)
	}
}

// TestPoolInlineAndDispatchedInterleave mixes the ways a ShardByFeed
// pool's caller reaches a shard's engines — batches of one feed and of
// two feeds on one shard (run on the caller), batches across shards
// (dispatched to workers), Snapshot and AddQuery — and requires every
// feed's matches to equal a dedicated engine's. Under -race it checks
// that the job channel and WaitGroup order the caller's accesses after
// the workers'.
func TestPoolInlineAndDispatchedInterleave(t *testing.T) {
	const feeds = 4
	traces := make([]*vr.Trace, feeds)
	for i := range traces {
		traces[i] = smallTrace(t, int64(70+i))
	}
	queries := []cnf.Query{mkQuery(t, 1, "car >= 1 AND person >= 1", 12, 6)}
	added := mkQuery(t, 2, "person >= 1", 8, 4)

	pool, err := NewPool(queries, PoolOptions{Workers: 2, Mode: ShardByFeed})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	refs := make([]*Engine, feeds)
	next := make([]int, feeds)
	var got, want []string
	// take appends up to n next frames of each feed, feed by feed in
	// turn, and runs them through the reference engines.
	take := func(batch []FeedFrame, n int, fs ...int) []FeedFrame {
		for k := 0; k < n; k++ {
			for _, feed := range fs {
				if next[feed] == traces[feed].Len() {
					continue
				}
				f := traces[feed].Frame(next[feed])
				next[feed]++
				batch = append(batch, FeedFrame{Feed: FeedID(feed), Frame: f})
				if refs[feed] == nil {
					if refs[feed], err = New(pool.Queries(), Options{}); err != nil {
						t.Fatal(err)
					}
				}
				want = append(want, poolFrameKeys([]FeedResult{{Feed: FeedID(feed), FID: f.FID, Matches: refs[feed].ProcessFrame(f)}})...)
			}
		}
		return batch
	}
	rng := rand.New(rand.NewSource(5))
	var inline, dispatched int
	for step := 0; ; step++ {
		if step == 30 {
			if err := pool.AddQuery(added); err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				if ref != nil {
					if err := ref.AddQuery(added); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var batch []FeedFrame
		switch rng.Intn(4) {
		case 0: // one feed: the caller runs it
			batch = take(batch, 1+rng.Intn(6), rng.Intn(feeds))
		case 1: // feeds 0 and 2 share shard 0: still the caller
			batch = take(batch, 1+rng.Intn(3), 0, 2)
		case 2: // every feed: dispatched to both workers
			batch = take(batch, 1+rng.Intn(3), rng.Perm(feeds)...)
		case 3:
			snapFile(t, pool)
			continue
		}
		if len(batch) == 0 {
			if slices.Equal(next, []int{traces[0].Len(), traces[1].Len(), traces[2].Len(), traces[3].Len()}) {
				break
			}
			continue
		}
		if _, one := pool.oneShard(batch); one {
			inline++
		} else {
			dispatched++
		}
		got = append(got, poolFrameKeys(pool.ProcessBatch(batch))...)
	}
	// Reference keys were appended frame by frame in batch order, like
	// the pool's results; matchless frames add nothing on either side.
	if !equalStrings(got, want) {
		t.Errorf("pool diverges from per-feed engines: %s", firstDiff(got, want))
	}
	if len(want) == 0 || inline == 0 || dispatched == 0 {
		t.Errorf("vacuous: %d matches, %d one-shard and %d dispatched batches", len(want), inline, dispatched)
	}
}
