package tvq_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"tvq"
)

// Snapshot bytes are pinned across commits: the files under testdata/
// were written by an earlier build from the sessions below, and every
// later build must write the same bytes for them and resume each file
// to a session whose snapshot is that file again. A change to the
// layout bumps snapshot.Version and replaces the files.
var goldenSnapshots = []struct {
	file  string
	build func(t testing.TB) *tvq.Session
}{
	{"churn-bygroup.snap", goldenChurnSession},
	{"session2-reorder.snap", goldenReorderSession},
}

func TestSnapshotBytesAcrossCommits(t *testing.T) {
	for _, g := range goldenSnapshots {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + g.file)
			if err != nil {
				t.Fatal(err)
			}
			s := g.build(t)
			defer s.Close()
			var got bytes.Buffer
			if err := s.Snapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("the session snapshots to %d bytes that differ from the %d of %s", got.Len(), len(want), g.file)
			}
			resumeRoundTrip(t, want).Close()
		})
	}
}

// goldenTrace is a scene built from math/rand alone, so the pinned
// files do not move when a trace generator does: objects of four classes
// arrive one every 5 frames on average, stay 10 to 100 frames, and miss
// one detection in ten, which splits their frame sets.
func goldenTrace(t testing.TB, seed int64, frames int) *tvq.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg := tvq.StandardRegistry()
	type object struct {
		tvq.Tuple // ID and Class
		until     int64
	}
	var alive []object
	var tuples []tvq.Tuple
	next := uint32(1)
	for fid := int64(0); fid < int64(frames); fid++ {
		if rng.Intn(5) == 0 || len(alive) < 2 {
			class := reg.Class(diffClasses[rng.Intn(len(diffClasses))])
			alive = append(alive, object{tvq.Tuple{ID: next, Class: class}, fid + 10 + rng.Int63n(90)})
			next++
		}
		kept := alive[:0]
		for _, o := range alive {
			if o.until > fid {
				kept = append(kept, o)
				if rng.Intn(10) > 0 {
					tuples = append(tuples, tvq.Tuple{FID: fid, ID: o.ID, Class: o.Class})
				}
			}
		}
		alive = kept
	}
	tr, err := tvq.NewTraceFromTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// goldenQueries draws n mixed ≥/≤/= queries at one window and duration,
// numbered from id.
func goldenQueries(rng *rand.Rand, id, n, window, duration int) []tvq.Query {
	ops := []string{">=", "<=", "="}
	qs := make([]tvq.Query, n)
	for i := range qs {
		text := ""
		for c, nc := 0, 1+rng.Intn(2); c < nc; c++ {
			if c > 0 {
				text += " AND "
			}
			text += fmt.Sprintf("%s %s %d", diffClasses[rng.Intn(len(diffClasses))], ops[rng.Intn(len(ops))], rng.Intn(4))
		}
		qs[i] = tvq.MustQuery(id+i, text, window, duration)
	}
	return qs
}

// goldenChurnSession is churn-checkpoint's shape at a small scale: a
// two-worker group-sharded SSG pool over 8+8 standing queries at w=60
// and w=30, a Subscribe every 25 frames from a 12-body catalogue with
// the 4 newest kept and the oldest cancelled, 400 frames, and the last
// cancellation still pending when the snapshot is taken.
func goldenChurnSession(t testing.TB) *tvq.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	standing := append(goldenQueries(rng, 1, 8, 60, 48), goldenQueries(rng, 9, 8, 30, 24)...)
	catalogue := append(goldenQueries(rng, 0, 6, 60, 30), goldenQueries(rng, 0, 6, 30, 12)...)
	s, err := tvq.Open(nil, tvq.WithQueries(standing...), tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup))
	if err != nil {
		t.Fatal(err)
	}
	var subs []*tvq.Subscription
	for i, f := range goldenTrace(t, 32, 400).Frames() {
		if i%25 == 0 {
			q := catalogue[len(subs)%len(catalogue)]
			q.ID = 100 + len(subs)
			sub, err := s.Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
			if len(subs) > 4 {
				if err := subs[len(subs)-5].Cancel(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := subs[len(subs)-4].Cancel(); err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenReorderSession is a disordered single-engine session ("session2"
// payload) snapshotted mid-reassembly: frame 150 has not arrived, so the
// three frames after it sit in the reorder buffer.
func goldenReorderSession(t testing.TB) *tvq.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	s, err := tvq.Open(nil, tvq.WithQueries(goldenQueries(rng, 1, 4, 40, 20)...), tvq.WithDisorderBound(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(goldenQueries(rng, 50, 1, 20, 10)[0]); err != nil {
		t.Fatal(err)
	}
	frames := goldenTrace(t, 33, 160).Frames()
	var arrivals []tvq.FeedFrame
	for _, f := range frames[:150] {
		arrivals = append(arrivals, tvq.FeedFrame{Frame: f})
	}
	for _, f := range frames[151:154] {
		arrivals = append(arrivals, tvq.FeedFrame{Frame: f})
	}
	for i := 0; i < len(arrivals); i += 16 {
		if _, err := s.Process(arrivals[i:min(i+16, len(arrivals))]); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.ReorderDepth(); d != 3 {
		t.Fatalf("%d frames buffered, want 3", d)
	}
	return s
}
