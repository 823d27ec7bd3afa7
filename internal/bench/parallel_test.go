package bench

import (
	"fmt"
	"runtime"
	"testing"

	"tvq/internal/engine"
)

func TestMultiFeed(t *testing.T) {
	traces, err := quick().MultiFeed("M2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("MultiFeed returned %d traces", len(traces))
	}
	// Distinct seeds should yield distinct feeds of the same length.
	if traces[0].Len() != traces[1].Len() {
		t.Errorf("feed lengths differ: %d vs %d", traces[0].Len(), traces[1].Len())
	}
	same := true
	for i := 0; i < traces[0].Len(); i++ {
		if !traces[0].Frame(i).Objects.Equal(traces[1].Frame(i).Objects) {
			same = false
			break
		}
	}
	if same {
		t.Error("feeds 0 and 1 are identical; seeds not applied")
	}
	if _, err := quick().MultiFeed("M2", 0); err == nil {
		t.Error("zero feeds accepted")
	}
}

func TestInterleaveFeeds(t *testing.T) {
	traces, err := quick().MultiFeed("D1", 2)
	if err != nil {
		t.Fatal(err)
	}
	frames := InterleaveFeeds(traces)
	want := traces[0].Len() + traces[1].Len()
	if len(frames) != want {
		t.Fatalf("interleaved %d frames, want %d", len(frames), want)
	}
	// Per-feed frame ids must stay consecutive from 0 in stream order.
	next := map[engine.FeedID]int64{}
	for _, ff := range frames {
		if ff.Frame.FID != next[ff.Feed] {
			t.Fatalf("feed %d: frame %d out of order (want %d)", ff.Feed, ff.Frame.FID, next[ff.Feed])
		}
		next[ff.Feed]++
	}
}

// TestParallelScalingAgrees runs the scaling experiment at tiny scale;
// ParallelScaling itself fails if any pool row's match count deviates
// from the serial baseline, so this doubles as the correctness gate.
func TestParallelScalingAgrees(t *testing.T) {
	rows, err := quick().ParallelScaling("M2", 2, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // serial, pool/1, pool/2
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, row := range rows[1:] {
		if row.Matches != rows[0].Matches {
			t.Fatalf("%s: %d matches, serial %d", row.Label, row.Matches, rows[0].Matches)
		}
	}
}

// TestPoolBeatsSerial is the acceptance check for the parallel executor:
// on the multi-feed multi-query workload, four workers must deliver at
// least twice the serial baseline's frames/sec. Parallel speedup needs
// parallel hardware and an uninstrumented build, so the test only
// measures on >= 4-CPU machines without the race detector. CI runs it
// in a dedicated non-race, continue-on-error step (wall-clock gates on
// shared runners flake); the authoritative run is
// `go test ./internal/bench -run TestPoolBeatsSerial` on real hardware.
func TestPoolBeatsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping throughput measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector serializes execution; speedup is not measurable")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need 4 CPUs for a 4-worker speedup, have %d", runtime.GOMAXPROCS(0))
	}
	cfg := Config{Seed: 1, Scale: 4}
	rows, err := cfg.ParallelScaling("M2", 4, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	var pool4 *ParallelRow
	for i := range rows {
		if rows[i].Workers == 4 {
			pool4 = &rows[i]
		}
	}
	if pool4 == nil {
		t.Fatal("no pool/4 row")
	}
	if pool4.Speedup < 2 {
		t.Errorf("pool/4 speedup %.2fx, want >= 2x (serial %.3fs, pool %.3fs)",
			pool4.Speedup, rows[0].Seconds, pool4.Seconds)
	}
}

// BenchmarkPoolMultiFeed measures multi-camera throughput at increasing
// worker counts on the M2-style multi-query workload; frames/sec is
// reported as a custom metric. On parallel hardware pool/N approaches
// N-times the serial rate.
func BenchmarkPoolMultiFeed(b *testing.B) {
	cfg := Config{Seed: 1, Scale: 6}
	const feeds, nqueries = 4, 30
	traces, err := cfg.MultiFeed("M2", feeds)
	if err != nil {
		b.Fatal(err)
	}
	qs := MixedWorkload(nqueries, cfg.scale(DefaultWindow), cfg.scale(DefaultDuration), cfg.Seed)
	frames := InterleaveFeeds(traces)

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runSerial(qs, engine.Options{}, frames); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pool/%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				popts := engine.PoolOptions{Workers: workers, Mode: engine.ShardByFeed}
				if _, err := runPool(qs, popts, frames); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
