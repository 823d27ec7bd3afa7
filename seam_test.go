package tvq_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tvq"
	"tvq/internal/engine"
)

// seamQueries spans three window sizes, so a group-sharded pool has
// something to spread over two workers.
func seamQueries() []tvq.Query {
	return []tvq.Query{
		tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5),
		tvq.MustQuery(2, "person >= 1", 16, 8),
		tvq.MustQuery(3, "person >= 2", 8, 4),
	}
}

// seamShapes are the three execution shapes as a session is told about
// them and as internal/engine is.
var seamShapes = []struct {
	name  string
	feeds int
	opts  []tvq.Option
	proc  engine.PoolOptions
}{
	{"single", 1, nil, engine.PoolOptions{}},
	{"byfeed", 2,
		[]tvq.Option{tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByFeed)},
		engine.PoolOptions{Workers: 2, Mode: engine.ShardByFeed, Sharded: true}},
	{"bygroup", 1,
		[]tvq.Option{tvq.WithWorkers(2), tvq.WithShardMode(tvq.ShardByGroup)},
		engine.PoolOptions{Workers: 2, Mode: engine.ShardByGroup, Sharded: true}},
}

// seamInput interleaves feeds copies of the session trace round-robin.
func seamInput(t *testing.T, feeds int) []tvq.FeedFrame {
	t.Helper()
	var in []tvq.FeedFrame
	for _, f := range sessionTrace(t).Frames() {
		for feed := 0; feed < feeds; feed++ {
			in = append(in, tvq.FeedFrame{Feed: tvq.FeedID(feed), Frame: f})
		}
	}
	return in
}

// TestSnapshotKind: SnapshotKind names what a file holds without
// restoring it — "session" for both session layouts in every shape,
// "engine" and "pool" for the bare payloads Resume also reads.
func TestSnapshotKind(t *testing.T) {
	check := func(name string, data []byte, want string) {
		t.Helper()
		kind, err := tvq.SnapshotKind(bytes.NewReader(data))
		if err != nil || kind != want {
			t.Errorf("%s: SnapshotKind = %q, %v; want %q", name, kind, err, want)
		}
		s, err := tvq.Resume(nil, bytes.NewReader(data))
		if err != nil {
			t.Errorf("%s: Resume of the same bytes: %v", name, err)
			return
		}
		s.Close()
	}
	for _, shape := range seamShapes {
		for _, disorder := range []struct {
			name string
			opts []tvq.Option
		}{{"strict", nil}, {"disordered", []tvq.Option{tvq.WithDisorderBound(4)}}} {
			opts := append([]tvq.Option{tvq.WithQueries(seamQueries()...)}, shape.opts...)
			s, err := tvq.Open(nil, append(opts, disorder.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Process(seamInput(t, shape.feeds)[:20]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			s.Close()
			check(disorder.name+"/"+shape.name, buf.Bytes(), "session")
		}

		proc, err := engine.Open(seamQueries(), shape.proc)
		if err != nil {
			t.Fatal(err)
		}
		file := procFile(t, proc)
		proc.Close()
		want := "pool"
		if shape.name == "single" {
			want = "engine"
		}
		check("bare/"+shape.name, file, want)
	}
}

// TestFeedCheckAcrossShapes: a frame of a feed other than 0 is an error
// — not a cursor advance, not a worker panic — on every session that is
// not MultiFeed, pooled or not, and is accepted by a ShardByFeed one.
func TestFeedCheckAcrossShapes(t *testing.T) {
	frame := sessionTrace(t).Frame(0)
	for _, shape := range seamShapes {
		s, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQueries(seamQueries()...)}, shape.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Process([]tvq.FeedFrame{{Feed: 3, Frame: frame}})
		if multi := shape.name == "byfeed"; s.MultiFeed() != multi {
			t.Errorf("%s: MultiFeed = %v", shape.name, s.MultiFeed())
		} else if multi {
			if err != nil || s.NextFID(3) != 1 {
				t.Errorf("%s: feed 3 refused: err = %v, NextFID(3) = %d", shape.name, err, s.NextFID(3))
			}
		} else {
			if err == nil || s.NextFID(0) != 0 {
				t.Errorf("%s: feed 3 accepted: err = %v, NextFID(0) = %d", shape.name, err, s.NextFID(0))
			}
			if _, err := s.Process([]tvq.FeedFrame{{Frame: frame}}); err != nil {
				t.Errorf("%s: feed 0 refused after the rejected frame: %v", shape.name, err)
			}
		}
		s.Close()
	}
}

// TestResumeBarePayloads: a bare engine or pool snapshot — what builds
// before the Session API wrote, produced here through internal/engine
// mid-trace — round-trips, and resumes into a session that continues
// exactly as an uninterrupted session of the same shape does, down to the
// bytes a JSONLSink writes, for every method; and an engine payload
// refuses options that describe a pool. Each method runs with one more
// engine option, so every flag of the option header is set somewhere.
func TestResumeBarePayloads(t *testing.T) {
	jsonl := func(s *tvq.Session, in []tvq.FeedFrame) []byte {
		t.Helper()
		var out bytes.Buffer
		sink := tvq.NewJSONLSink(&out)
		for i := 0; i < len(in); i += 7 {
			results, err := s.Process(in[i:min(i+7, len(in))])
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				for _, m := range r.Matches {
					if err := sink.Deliver(tvq.Delivery{Feed: r.Feed, FID: r.FID, Match: m}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return out.Bytes()
	}
	variants := []struct {
		method tvq.Method
		opt    tvq.Option
		set    func(*engine.Options)
	}{
		{tvq.MethodNaive, tvq.WithWindowMode(tvq.Tumbling), func(o *engine.Options) { o.Windows = engine.Tumbling }},
		{tvq.MethodMFS, tvq.WithKeepAllClasses(), func(o *engine.Options) { o.KeepAllClasses = true }},
		{tvq.MethodSSG, tvq.WithPruning(true), func(o *engine.Options) { o.Prune = true }},
	}
	for _, shape := range seamShapes {
		for _, v := range variants {
			method := v.method
			t.Run(fmt.Sprintf("%s/%s", shape.name, method), func(t *testing.T) {
				in := seamInput(t, shape.feeds)
				cut := len(in) / 2
				if len(in[cut:])/shape.feeds < 16 {
					t.Fatal("the cut leaves fewer frames than the widest window")
				}

				ref, err := tvq.Open(nil, append([]tvq.Option{tvq.WithQueries(seamQueries()...), tvq.WithMethod(method), v.opt}, shape.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				jsonl(ref, in[:cut])
				want := jsonl(ref, in[cut:])
				if len(want) == 0 {
					t.Fatal("no matches after the cut; test is vacuous")
				}

				popts := shape.proc
				popts.Engine.Method = method
				v.set(&popts.Engine)
				proc, err := engine.Open(seamQueries(), popts)
				if err != nil {
					t.Fatal(err)
				}
				proc.Process(in[:cut])
				snap := procFile(t, proc)
				proc.Close()

				resumed := resumeRoundTrip(t, snap, shape.opts...)
				defer resumed.Close()
				if resumed.Method() != method || resumed.Workers() != ref.Workers() || resumed.MultiFeed() != ref.MultiFeed() {
					t.Fatalf("resumed as %s/%d workers/multifeed=%v, reference is %s/%d/%v", resumed.Method(), resumed.Workers(),
						resumed.MultiFeed(), ref.Method(), ref.Workers(), ref.MultiFeed())
				}
				if got, want := resumed.NextFID(0), tvq.FrameID(cut/shape.feeds); got != want {
					t.Fatalf("resumed at frame %d, want %d", got, want)
				}
				if got := jsonl(resumed, in[cut:]); !bytes.Equal(got, want) {
					t.Errorf("resumed session wrote %d JSONL bytes that differ from the uninterrupted session's %d", len(got), len(want))
				}

				if shape.name != "single" {
					return
				}
				for name, opt := range map[string]tvq.Option{
					"WithWorkers(2)":             tvq.WithWorkers(2),
					"WithShardMode(ShardByFeed)": tvq.WithShardMode(tvq.ShardByFeed),
				} {
					if _, err := tvq.Resume(nil, bytes.NewReader(snap), opt); !errors.Is(err, tvq.ErrSnapshotMismatch) {
						t.Errorf("engine payload with %s: err = %v, want ErrSnapshotMismatch", name, err)
					}
				}
			})
		}
	}
}
