package tvq_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"tvq"
)

func TestParseQuery(t *testing.T) {
	q, err := tvq.ParseQuery(1, "car >= 2 AND person <= 3", 300, 240)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != 1 || q.Window != 300 || q.Duration != 240 {
		t.Fatalf("query = %+v", q)
	}
	if _, err := tvq.ParseQuery(1, "car >=", 300, 240); err == nil {
		t.Error("bad text accepted")
	}
	if _, err := tvq.ParseQuery(1, "car >= 2", 300, 400); err == nil {
		t.Error("duration > window accepted")
	}
}

func TestMustQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuery did not panic")
		}
	}()
	tvq.MustQuery(1, "nonsense query ..", 10, 5)
}

func TestEndToEndPipeline(t *testing.T) {
	reg := tvq.StandardRegistry()
	p, ok := tvq.DatasetByName("M1")
	if !ok {
		t.Fatal("M1 missing")
	}
	p.Frames = 200
	p.Objects = 40
	trace, err := tvq.GenerateDataset(p, 42, tvq.Noise{MissProb: 0.05, Seed: 42}, reg)
	if err != nil {
		t.Fatal(err)
	}
	queries := []tvq.Query{
		tvq.MustQuery(1, "person >= 1", 30, 15),
		tvq.MustQuery(2, "person >= 2 AND car >= 1", 30, 10),
	}
	ses, err := tvq.Open(context.Background(), tvq.WithQueries(queries...), tvq.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	total := 0
	for _, f := range trace.Frames() {
		matches, err := ses.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		total += len(matches)
	}
	if total == 0 {
		t.Fatal("pipeline produced no matches on a pedestrian-heavy dataset")
	}
}

// TestPoolFacade drives the parallel executor through the public API:
// two feeds through a ShardByFeed pool must reproduce the per-feed
// single-engine totals.
func TestPoolFacade(t *testing.T) {
	reg := tvq.StandardRegistry()
	p, _ := tvq.DatasetByName("M1")
	p.Frames = 150
	p.Objects = 30
	queries := []tvq.Query{
		tvq.MustQuery(1, "person >= 1", 30, 15),
		tvq.MustQuery(2, "person >= 2 AND car >= 1", 30, 10),
	}

	var traces []*tvq.Trace
	want := make(map[tvq.FeedID]int)
	for feed := 0; feed < 2; feed++ {
		trace, err := tvq.GenerateDataset(p, int64(50+feed), tvq.Noise{}, reg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trace)
		single, err := tvq.Open(context.Background(), tvq.WithQueries(queries...), tvq.WithRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range trace.Frames() {
			matches, err := single.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			want[tvq.FeedID(feed)] += len(matches)
		}
		single.Close()
	}

	ses, err := tvq.Open(context.Background(),
		tvq.WithQueries(queries...),
		tvq.WithRegistry(reg),
		tvq.WithWorkers(2),
		tvq.WithShardMode(tvq.ShardByFeed),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	var batch []tvq.FeedFrame
	for fi := 0; fi < p.Frames; fi++ {
		for feed, trace := range traces {
			if fi < trace.Len() {
				batch = append(batch, tvq.FeedFrame{Feed: tvq.FeedID(feed), Frame: trace.Frame(fi)})
			}
		}
	}
	results, err := ses.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[tvq.FeedID]int)
	for _, r := range results {
		got[r.Feed] += len(r.Matches)
	}
	for feed, n := range want {
		if got[feed] != n {
			t.Errorf("feed %d: pool found %d matches, single engine %d", feed, got[feed], n)
		}
	}
	if want[0] == 0 {
		t.Error("workload produced no matches; test is vacuous")
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	reg := tvq.StandardRegistry()
	p, _ := tvq.DatasetByName("V1")
	p.Frames = 120
	p.Objects = 10
	p.FramesPerObj = 40
	trace, err := tvq.GenerateDataset(p, 3, tvq.Noise{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tvq.WriteTraceCSV(&buf, trace, reg); err != nil {
		t.Fatal(err)
	}
	back, err := tvq.ReadTraceCSV(&buf, tvq.StandardRegistry())
	if err != nil {
		t.Fatal(err)
	}
	a, b := tvq.ComputeStats(trace), tvq.ComputeStats(back)
	if a.Objects != b.Objects || a.ObjPerFrame != b.ObjPerFrame {
		t.Fatalf("round trip changed stats: %+v vs %+v", a, b)
	}
}

func TestInjectOcclusions(t *testing.T) {
	reg := tvq.StandardRegistry()
	p, _ := tvq.DatasetByName("D1")
	p.Frames = 300
	p.Objects = 60
	trace, err := tvq.GenerateDataset(p, 5, tvq.Noise{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	before := tvq.ComputeStats(trace)
	after := tvq.ComputeStats(tvq.InjectOcclusions(trace, 2, 9))
	if after.Objects >= before.Objects {
		t.Errorf("po=2 did not reduce unique objects: %d vs %d", after.Objects, before.Objects)
	}
}

func TestFormatMatch(t *testing.T) {
	m := tvq.Match{QueryID: 3}
	if got := tvq.FormatMatch(m); !strings.Contains(got, "q3") {
		t.Errorf("FormatMatch = %q", got)
	}
}

func TestDatasets(t *testing.T) {
	ds := tvq.Datasets()
	if len(ds) != 6 {
		t.Fatalf("datasets = %d", len(ds))
	}
	if ds[0].Name != "V1" || ds[5].Name != "M2" {
		t.Errorf("order = %v, %v", ds[0].Name, ds[5].Name)
	}
}
