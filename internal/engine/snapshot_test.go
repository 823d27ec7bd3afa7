package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

// TestEngineKillAndResume is the acceptance matrix for single engines:
// for every method × window mode, snapshot mid-stream at several cut
// points, restore, and require the concatenated match stream to be
// identical to an uninterrupted run on the same trace.
func TestEngineKillAndResume(t *testing.T) {
	tr := smallTrace(t, 21)
	qs := []cnf.Query{
		mkQuery(t, 1, "car >= 1 AND person >= 1", 12, 6),
		mkQuery(t, 2, "person >= 2", 18, 9),
		mkQuery(t, 3, "(car >= 2 OR truck >= 1)", 12, 4),
	}
	for _, method := range []Method{MethodNaive, MethodMFS, MethodSSG} {
		for _, wm := range []WindowMode{Sliding, Tumbling} {
			wmName := "sliding"
			if wm == Tumbling {
				wmName = "tumbling"
			}
			t.Run(fmt.Sprintf("%s/%s", method, wmName), func(t *testing.T) {
				opts := Options{Method: method, Windows: wm}
				full, err := New(qs, opts)
				if err != nil {
					t.Fatal(err)
				}
				var want []string
				for _, f := range tr.Frames() {
					for _, m := range full.ProcessFrame(f) {
						want = append(want, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
					}
				}
				if len(want) == 0 {
					t.Fatal("workload produced no matches; test is vacuous")
				}

				for _, cut := range []int{0, 1, tr.Len() / 3, tr.Len() / 2, tr.Len() - 1} {
					eng, err := New(qs, opts)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					for _, f := range tr.Frames()[:cut] {
						for _, m := range eng.ProcessFrame(f) {
							got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
						}
					}
					buf := snapFile(t, eng)
					restored, err := restoreEngine(buf, Options{})
					if err != nil {
						t.Fatalf("cut %d: restore: %v", cut, err)
					}
					if restored.NextFID(0) != vr.FrameID(cut) {
						t.Fatalf("cut %d: NextFID = %d", cut, restored.NextFID(0))
					}
					if restored.StateCount() != eng.StateCount() {
						t.Fatalf("cut %d: StateCount %d != %d", cut, restored.StateCount(), eng.StateCount())
					}
					for _, f := range tr.Frames()[cut:] {
						for _, m := range restored.ProcessFrame(f) {
							got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
						}
					}
					if !equalStrings(got, want) {
						t.Fatalf("cut %d: resumed stream diverged\n got %d matches\n want %d matches\nfirst diff: %s",
							cut, len(got), len(want), firstDiff(got, want))
					}
				}
			})
		}
	}
}

// TestEngineDoubleResume chains two kill/restore cycles, as a long
// production run checkpointing repeatedly would.
func TestEngineDoubleResume(t *testing.T) {
	tr := smallTrace(t, 33)
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1 AND car >= 1", 15, 5)}
	want := flatRun(t, tr, qs, Options{})

	eng, err := New(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	cuts := []int{tr.Len() / 4, tr.Len() / 2}
	prev := 0
	for _, cut := range cuts {
		for _, f := range tr.Frames()[prev:cut] {
			for _, m := range eng.ProcessFrame(f) {
				got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
			}
		}
		buf := snapFile(t, eng)
		eng, err = restoreEngine(buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prev = cut
	}
	for _, f := range tr.Frames()[prev:] {
		for _, m := range eng.ProcessFrame(f) {
			got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
		}
	}
	if !equalStrings(got, want) {
		t.Fatalf("double resume diverged: %s", firstDiff(got, want))
	}
}

// TestEngineSnapshotWithDynamicQueries snapshots an engine whose query
// set changed at runtime (a dynamically added window group with a
// non-zero start offset) and requires the restored engine to mirror an
// uninterrupted engine with the same AddQuery schedule.
func TestEngineSnapshotWithDynamicQueries(t *testing.T) {
	tr := smallTrace(t, 9)
	base := []cnf.Query{mkQuery(t, 1, "person >= 1", 10, 4)}
	added := mkQuery(t, 2, "car >= 1", 16, 6)
	addAt := 30
	cut := 60

	run := func() (*Engine, []string) {
		eng, err := New(base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range tr.Frames()[:cut] {
			if int(f.FID) == addAt {
				if err := eng.AddQuery(added); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range eng.ProcessFrame(f) {
				out = append(out, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
			}
		}
		return eng, out
	}

	full, want := run()
	for _, f := range tr.Frames()[cut:] {
		for _, m := range full.ProcessFrame(f) {
			want = append(want, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
		}
	}

	eng, got := run()
	buf := snapFile(t, eng)
	restored, err := restoreEngine(buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.groups) != 2 {
		t.Fatalf("restored groups = %d, want 2", len(restored.groups))
	}
	for _, f := range tr.Frames()[cut:] {
		for _, m := range restored.ProcessFrame(f) {
			got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
		}
	}
	if !equalStrings(got, want) {
		t.Fatalf("dynamic-query resume diverged: %s", firstDiff(got, want))
	}
}

// snapFile frames p's snapshot payload as a snapshot file.
func snapFile(t testing.TB, p Processor) []byte {
	t.Helper()
	var sw snapshot.Writer
	at := sw.Begin()
	if err := p.Snapshot(&sw); err != nil {
		t.Fatal(err)
	}
	sw.End(at)
	return sw.Bytes()
}

// restoreFile is Restore for a snapshot file: its container is checked,
// then its payload decoded.
func restoreFile(file []byte, opts PoolOptions) (Processor, error) {
	payload, err := snapshot.Parse(file)
	if err != nil {
		return nil, err
	}
	return Restore(payload, opts)
}

// restoreEngine is restoreFile for a snapshot the test knows to hold an
// engine, typed so the caller can go on to ProcessFrame.
func restoreEngine(file []byte, opts Options) (*Engine, error) {
	p, err := restoreFile(file, PoolOptions{Engine: opts})
	if err != nil {
		return nil, err
	}
	return p.(*Engine), nil
}

// snapshotRoundTrip serializes eng and restores it, failing the test on
// any codec error.
func snapshotRoundTrip(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	buf := snapFile(t, eng)
	restored, err := restoreEngine(buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// flatRun runs the trace through a fresh engine and flattens the match
// stream to comparable lines.
func flatRun(t *testing.T, tr *vr.Trace, qs []cnf.Query, opts Options) []string {
	t.Helper()
	eng, err := New(qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range tr.Frames() {
		for _, m := range eng.ProcessFrame(f) {
			out = append(out, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(got, want []string) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: got %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length mismatch %d vs %d", len(got), len(want))
}

// poolResults flattens FeedResults for comparison.
func poolResults(dst []string, rs []FeedResult) []string {
	for _, r := range rs {
		for _, m := range r.Matches {
			dst = append(dst, fmt.Sprintf("f%d@%d:%s", r.Feed, r.FID, matchKey(m)))
		}
	}
	return dst
}

// TestPoolKillAndResume covers both shard modes × all three methods:
// snapshot between batches, restore, and require the concatenated
// result stream to match an uninterrupted pool run.
func TestPoolKillAndResume(t *testing.T) {
	traces := []*vr.Trace{smallTrace(t, 41), smallTrace(t, 42), smallTrace(t, 43)}

	build := func(mode ShardMode) (qs []cnf.Query, frames []FeedFrame) {
		if mode == ShardByGroup {
			qs = []cnf.Query{
				mkQuery(t, 1, "person >= 1 AND car >= 1", 12, 6),
				mkQuery(t, 2, "person >= 2", 18, 9),
			}
			for _, f := range traces[0].Frames() {
				frames = append(frames, FeedFrame{Frame: f})
			}
			return qs, frames
		}
		qs = []cnf.Query{
			mkQuery(t, 1, "person >= 1 AND car >= 1", 12, 6),
			mkQuery(t, 2, "person >= 2", 12, 8),
		}
		for i := 0; i < traces[0].Len(); i++ {
			for feed, tr := range traces {
				if i < tr.Len() {
					frames = append(frames, FeedFrame{Feed: FeedID(feed), Frame: tr.Frame(i)})
				}
			}
		}
		return qs, frames
	}

	for _, mode := range []ShardMode{ShardByFeed, ShardByGroup} {
		modeName := "byfeed"
		if mode == ShardByGroup {
			modeName = "bygroup"
		}
		for _, method := range []Method{MethodNaive, MethodMFS, MethodSSG} {
			t.Run(fmt.Sprintf("%s/%s", modeName, method), func(t *testing.T) {
				qs, frames := build(mode)
				popts := PoolOptions{Workers: 2, Mode: mode, Engine: Options{Method: method}}

				full, err := NewPool(qs, popts)
				if err != nil {
					t.Fatal(err)
				}
				defer full.Close()
				var want []string
				for i := 0; i < len(frames); i += 50 {
					end := min(i+50, len(frames))
					want = poolResults(want, full.ProcessBatch(frames[i:end]))
				}
				if len(want) == 0 {
					t.Fatal("workload produced no matches; test is vacuous")
				}

				cut := len(frames) / 2
				if mode == ShardByFeed {
					// Cut on a whole ingestion round so per-feed order holds.
					cut -= cut % len(traces)
				}
				pool, err := NewPool(qs, popts)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				got = poolResults(got, pool.ProcessBatch(frames[:cut]))
				buf := snapFile(t, pool)
				pool.Close()

				restored, err := restoreFile(buf, PoolOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				if restored.Workers() != 2 {
					t.Fatalf("restored Workers = %d", restored.Workers())
				}
				if mode == ShardByGroup {
					if next := restored.NextFID(0); next != vr.FrameID(cut) {
						t.Fatalf("restored NextFID = %d, want %d", next, cut)
					}
				}
				got = poolResults(got, restored.Process(frames[cut:]))
				if !equalStrings(got, want) {
					t.Fatalf("pool resume diverged: %s", firstDiff(got, want))
				}
			})
		}
	}
}

// TestRestoreRejectsCorruption covers the failure modes the snapshot
// format must turn into descriptive errors.
func TestRestoreRejectsCorruption(t *testing.T) {
	tr := smallTrace(t, 5)
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 10, 4)}
	eng, err := New(qs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Frames()[:40] {
		eng.ProcessFrame(f)
	}
	buf := snapFile(t, eng)
	valid := buf

	t.Run("bit flips", func(t *testing.T) {
		for off := 20; off < len(valid); off += 97 {
			b := append([]byte(nil), valid...)
			b[off] ^= 0x20
			if _, err := restoreEngine(b, Options{}); err == nil {
				t.Errorf("bit flip at %d accepted", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{0, 7, 19, 20, len(valid) / 2, len(valid) - 1} {
			if _, err := restoreEngine(valid[:cut], Options{}); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	// A generator must expect the frame its group will hand it next, or
	// the first frame after the restore panics in Process.
	t.Run("generator cursor", func(t *testing.T) {
		eng.next++
		defer func() { eng.next-- }()
		b := snapFile(t, eng)
		if _, err := restoreEngine(b, Options{}); err == nil || !strings.Contains(err.Error(), "holds a generator at frame 40") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[8]++
		if _, err := restoreEngine(b, Options{}); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("method mismatch", func(t *testing.T) {
		_, err := restoreEngine(valid, Options{Method: MethodNaive})
		if err == nil || !strings.Contains(err.Error(), "method") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("registry mismatch", func(t *testing.T) {
		_, err := restoreEngine(valid, Options{Registry: vr.NewRegistry("cat", "dog")})
		if err == nil || !strings.Contains(err.Error(), "registry") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("registry extension ok", func(t *testing.T) {
		reg := vr.StandardRegistry()
		reg.Class("bicycle") // caller registered more classes since the snapshot: fine
		if _, err := restoreEngine(valid, Options{Registry: reg}); err != nil {
			t.Errorf("extended registry rejected: %v", err)
		}
	})
	t.Run("engine snapshot with pool options", func(t *testing.T) {
		for _, opts := range []PoolOptions{{Workers: 2}, {Sharded: true, Mode: ShardByGroup}, {Workers: 1, Sharded: true}} {
			if _, err := restoreFile(valid, opts); !errors.Is(err, ErrSnapshotMismatch) {
				t.Errorf("%+v: err = %v, want ErrSnapshotMismatch", opts, err)
			}
		}
		if _, err := restoreFile(valid, PoolOptions{Workers: 1}); err != nil {
			t.Errorf("one worker and no shard mode describe an engine: %v", err)
		}
	})
	t.Run("pool snapshot with other pool options", func(t *testing.T) {
		pool, err := NewPool(qs, PoolOptions{Workers: 1, Mode: ShardByGroup})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		pb := snapFile(t, pool)
		for _, opts := range []PoolOptions{{Workers: 2}, {Engine: Options{Method: MethodMFS}}, {Engine: Options{Registry: vr.NewRegistry("cat")}}} {
			if _, err := restoreFile(pb, opts); !errors.Is(err, ErrSnapshotMismatch) {
				t.Errorf("%+v: err = %v, want ErrSnapshotMismatch", opts, err)
			}
		}
		restored, err := restoreFile(pb, PoolOptions{Workers: 1, Mode: ShardByGroup, Sharded: true})
		if err != nil {
			t.Fatal(err)
		}
		restored.Close()
		byFeed, err := NewPool(qs, PoolOptions{Workers: 1, Mode: ShardByFeed})
		if err != nil {
			t.Fatal(err)
		}
		defer byFeed.Close()
		if _, err := restoreFile(snapFile(t, byFeed), PoolOptions{Mode: ShardByGroup}); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("ShardByFeed snapshot in ShardByGroup mode: err = %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		var sw snapshot.Writer
		sw.String("session")
		if _, err := Restore(sw.Bytes(), PoolOptions{}); err == nil || !strings.Contains(err.Error(), "unknown state kind") {
			t.Errorf("err = %v", err)
		}
	})
}

// TestRestorePoolChecksWorkersBeforeBuilding: a ShardByGroup pool payload
// holds one engine per worker, so a recorded worker count the rest of
// the payload cannot hold is refused before any worker is built. A
// 1<<20-worker payload of under a hundred bytes used to allocate about
// 200 MiB of worker shells before it failed.
func TestRestorePoolChecksWorkersBeforeBuilding(t *testing.T) {
	var sw snapshot.Writer
	sw.String(payloadPool)
	sw.Int(int(ShardByGroup))
	sw.Int(1 << 20) // workers
	sw.Int(DefaultBatch)
	encodeQueries(&sw, []cnf.Query{mkQuery(t, 1, "car >= 1", 4, 2)})
	encodeOptions(&sw, Options{Method: MethodSSG, Registry: vr.NewRegistry()})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Restore(sw.Bytes(), PoolOptions{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Restore accepted a pool of 1<<20 workers and no engines")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing a %d-byte payload allocated %d bytes: %v", len(sw.Bytes()), n, err)
	}
}

// TestRestorePoolShardsShareCursor: a ShardByGroup pool's shards split
// one feed's window groups and process every frame of it, so a snapshot
// whose shards stand at different frames is malformed. Restored, its
// first frame panicked on the worker goroutine of the shard that
// expected another.
func TestRestorePoolShardsShareCursor(t *testing.T) {
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 6, 2), mkQuery(t, 2, "car >= 1", 9, 3)}
	p, err := NewPool(qs, PoolOptions{Workers: 2, Mode: ShardByGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var frames []FeedFrame
	for _, f := range smallTrace(t, 3).Frames()[:21] {
		frames = append(frames, FeedFrame{Frame: f})
	}
	p.ProcessBatch(frames[:20])
	if len(p.workers) != 2 {
		t.Fatalf("pool has %d shards, want 2", len(p.workers))
	}
	p.workers[1].eng.ProcessFrame(frames[20].Frame) // between batches the shard is idle
	buf := snapFile(t, p)
	if proc, err := restoreFile(buf, PoolOptions{}); err == nil || !strings.Contains(err.Error(), "shard 1 is at frame 21") {
		if err == nil {
			proc.Close()
		}
		t.Errorf("err = %v", err)
	}
}

// TestPoolSnapshotEncodesShardsConcurrently: a ShardByGroup pool encodes
// its shards at once, all but the first into their workers' own writers,
// and must write exactly the serial concatenation of the shards'
// encodings behind its header — also the second time, in the writers
// the first snapshot left behind. Under -race this covers the
// concurrent encode.
func TestPoolSnapshotEncodesShardsConcurrently(t *testing.T) {
	qs := []cnf.Query{
		mkQuery(t, 1, "person >= 1", 6, 2),
		mkQuery(t, 2, "car >= 1 AND person >= 1", 9, 3),
		mkQuery(t, 3, "car >= 2", 12, 4),
		mkQuery(t, 4, "(truck >= 1 OR person >= 2)", 15, 5),
	}
	p, err := NewPool(qs, PoolOptions{Workers: 4, Mode: ShardByGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(p.workers) != 4 {
		t.Fatalf("pool has %d shards, want 4", len(p.workers))
	}
	var frames []FeedFrame
	for _, f := range smallTrace(t, 17).Frames() {
		frames = append(frames, FeedFrame{Frame: f})
	}
	half := len(frames) / 2
	for _, batch := range [][]FeedFrame{frames[:half], frames[half:]} {
		p.ProcessBatch(batch)
		var got, want snapshot.Writer
		if err := p.Snapshot(&got); err != nil {
			t.Fatal(err)
		}
		want.String(payloadPool)
		want.Int(int(ShardByGroup))
		want.Int(4)
		want.Int(DefaultBatch)
		encodeQueries(&want, qs)
		encodeOptions(&want, Options{Method: MethodSSG, Registry: vr.StandardRegistry()})
		for _, w := range p.workers {
			if err := w.eng.encode(&want); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("after %d frames: the pool wrote %d bytes, the serial shards %d", batch[len(batch)-1].Frame.FID+1, len(got.Bytes()), len(want.Bytes()))
		}
	}
}
