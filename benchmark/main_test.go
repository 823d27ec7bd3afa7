package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tvq"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// testScale shrinks every input so that all four workloads, timed and
// traced, finish in a few seconds. An input is at least two clips, and
// a clip must outlast the duration threshold for anything to match, so
// the workloads with 240- and 120-frame thresholds keep more of theirs.
func testScale(workload string) string {
	switch workload {
	case "churn-checkpoint":
		return "0.17" // 2 clips of 194 frames
	case "dense-static":
		return "0.04" // 2 clips of 408 frames
	}
	return "0.04"
}

type contractLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBenchmark runs the program in process and returns its report and
// the contract line it printed last.
func runBenchmark(t *testing.T, workload string, args ...string) (report, contractLine) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	args = append(args, "-workload", workload, "-scale", testScale(workload), "-seconds", "0.01", "-out", out, "-tmp", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	var rep report
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line of output is not the contract's JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	return rep, line
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloads runs every workload timed (twice, same seed) and traced
// at a small scale: every metric BENCHMARK.json names must be there,
// finite and with its unit, and the two timed runs must agree exactly
// on inputs, output and operation counts.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloadNames))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			first, line := runBenchmark(t, w.Name, "-seed", "7")
			a := first.Results[0]
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("contract line reports correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			if a.Counts.Frames == 0 || a.Counts.Deliveries == 0 {
				t.Errorf("a pass processed %d frames and made %d deliveries", a.Counts.Frames, a.Counts.Deliveries)
			}
			if len(line.Metrics) != len(b.EndToEnd) {
				t.Errorf("-trace 0 printed %d metrics, BENCHMARK.json lists %d end to end", len(line.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end metric %s: got %+v (present=%v), want a positive finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if !testing.Short() {
				other, _ := runBenchmark(t, w.Name, "-seed", "8")
				// The seed reaches the frames (clip or arrival order), the
				// query ids, or both, depending on the workload.
				if o := other.Results[0]; o.Output == a.Output && strings.Join(o.Inputs, ",") == strings.Join(a.Inputs, ",") {
					t.Errorf("seeds 7 and 8 gave the same inputs %v and the same output %s", o.Inputs, o.Output)
				} else if o.Counts.Frames != a.Counts.Frames {
					t.Errorf("seeds 7 and 8 process %d and %d frames; the load must not depend on the seed", a.Counts.Frames, o.Counts.Frames)
				}
			}

			// The traced run is also the second run with the same seed: its
			// inputs, output and counts must repeat the first's exactly.
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			traced, line := runBenchmark(t, w.Name, "-seed", "7", "-trace", "1", "-spans", spans)
			if z := traced.Results[0]; z.Output != a.Output || z.Counts != a.Counts || strings.Join(z.Inputs, ",") != strings.Join(a.Inputs, ",") {
				t.Errorf("two runs with one seed disagree:\n%+v\n%+v", a, z)
			}
			if len(line.Metrics) != len(b.PerLayer) {
				t.Errorf("-trace 1 printed %d metrics, BENCHMARK.json lists %d per layer", len(line.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer metric %s: got %+v (present=%v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range []string{"vr.decode_ns_per_frame", "core.ssg.ns_per_frame", "query.evaluate_ns_per_frame", "trace.coverage"} {
				if !(line.Metrics[name].Value > 0) {
					t.Errorf("%s = %v on %s; every workload decodes, generates and evaluates", name, line.Metrics[name].Value, w.Name)
				}
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				ID, Parent int
				Name       string
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			for i, l := range lines {
				if err := json.Unmarshal(l, &rec); err != nil || rec.ID != i || rec.Parent >= i || rec.Name == "" {
					t.Fatalf("span file line %d: %s (%v)", i, l, err)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps the contract file and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d characters), the program has %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	want := endToEnd([]*passStats{{rateFrames: 1, rateNS: 1, frames: 1}}, []float64{1})
	if len(b.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(want))
	}
	for i, m := range b.EndToEnd {
		if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %s in %s", i, m, want[i].Name, want[i].Unit)
		}
	}
	if b.Command[len(b.Command)-1] != "benchmark/run.sh" || b.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
}

// TestExpectedPinned checks that a run with the pinned settings is held
// to expected.json and any other run is not.
func TestExpectedPinned(t *testing.T) {
	var pinned expectedFile
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		e, ok := pinned.Workloads[name]
		if !ok || len(e.Inputs) == 0 || e.Output == "" || e.Counts.Frames == 0 || e.MatchesPerFrame == 0 {
			t.Fatalf("expected.json does not pin %s: %+v", name, e)
		}
		cfg := &config{seed: pinned.Seed, scenes: pinned.Scenes, scale: pinned.Scale}
		res := &result{Workload: name, Inputs: e.Inputs, Output: e.Output, MatchesPerFrame: e.MatchesPerFrame, Counts: e.Counts}
		if err := res.checkExpected(cfg); err != nil {
			t.Errorf("%s: the pinned values do not pass their own check: %v", name, err)
		}
		res.Output = "crc32c:00000000/0B/0L"
		if err := res.checkExpected(cfg); err == nil {
			t.Errorf("%s: a changed output digest passed", name)
		}
		res.Output, res.Inputs = e.Output, []string{"0000"}
		if err := res.checkExpected(cfg); err == nil {
			t.Errorf("%s: a changed input digest passed", name)
		}
		cfg.seed++
		if err := res.checkExpected(cfg); err != nil {
			t.Errorf("%s: a run with another seed was held to the pinned values: %v", name, err)
		}
	}
}

func TestUnknownWorkloadAndFlags(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, output %q", code, out.String())
	}
	if code := run([]string{"-scale", "0"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("zero scale: exit %d, output %q", code, out.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errs); code == 0 {
		t.Errorf("unknown flag: exit %d", code)
	}
}

func TestSteadyNSDropsOneSlowStretch(t *testing.T) {
	pass := func(slowAt int) *passStats {
		st := &passStats{rateFrames: 400, rateSamples: make([]int64, 400)}
		for i := range st.rateSamples {
			st.rateSamples[i] = 100
			if slowAt >= 0 && i/20 == slowAt {
				st.rateSamples[i] = 300
			}
			st.rateNS += st.rateSamples[i]
		}
		st.rateNS += 1000 // time outside the samples
		return st
	}
	got := steadyNS([]*passStats{pass(3), pass(-1), pass(11)})
	if want := 400*100 + 1000.0; got != want {
		t.Errorf("steadyNS = %v, want %v: a stretch slow in one pass of three must drop out", got, want)
	}
}

func TestQuantilesAndPercentiles(t *testing.T) {
	m := summary("x", "u", []float64{4, 1, 3, 2, 5})
	if m.Value != 3 || m.Q1 != 2 || m.Q3 != 4 || m.N != 5 {
		t.Errorf("summary = %+v", m)
	}
	sample := []int64{5, 1, 4, 2, 3}
	if p := percentileNS(sample, 0.5); p != 3 {
		t.Errorf("median = %v", p)
	}
	if sample[0] != 5 {
		t.Errorf("percentileNS reordered its argument: %v", sample)
	}
	if percentileNS(nil, 0.99) != 0 || ratio(1, 0) != 0 {
		t.Errorf("empty samples and zero divisors must give 0")
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	l := &spanLog{workload: "w"}
	root := l.add("parent", 0, 0, 100, -1)
	l.add("child", 0, 10, 60, root)
	l.add("child", 0, 40, 80, root) // a pool worker running beside the first
	l.add("parent", 5, 0, 50, -1)   // beyond the limit
	self := l.selfTimes(5)
	if self["parent"] != 30 || self["child"] != 90 {
		t.Errorf("self times %v, want parent 30 (100 minus the 70 its children cover) and child 90", self)
	}
	if ns, n := l.total("child", 5); ns != 90 || n != 2 {
		t.Errorf("total = %d over %d spans", ns, n)
	}
}

// TestClipOrderKeepsEveryFrame: whatever order the clips are played in,
// the trace holds the same frames with the same objects.
func TestClipOrderKeepsEveryFrame(t *testing.T) {
	reg := tvq.StandardRegistry()
	a, err := sceneTrace("M1", 4, 1, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sceneTrace("M1", 4, 1, rand.New(rand.NewSource(2)), reg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4*1194 || a.Len() != b.Len() || framesDigest(a.Frames(), a, reg) == framesDigest(b.Frames(), b, reg) {
		t.Fatalf("pool order and seed 2: %d and %d frames, digests equal = %v", a.Len(), b.Len(), framesDigest(a.Frames(), a, reg) == framesDigest(b.Frames(), b, reg))
	}
	count := func(tr *tvq.Trace) map[string]int {
		sets := map[string]int{}
		for _, f := range tr.Frames() {
			sets[f.Objects.Key()]++
		}
		return sets
	}
	ca, cb := count(a), count(b)
	if len(ca) != len(cb) {
		t.Fatalf("%d and %d distinct object sets", len(ca), len(cb))
	}
	for k, n := range ca {
		if cb[k] != n {
			t.Fatalf("an object set occurs %d times under seed 1 and %d times under seed 2", n, cb[k])
		}
	}
	for i, f := range b.Frames() {
		if f.FID != int64(i) {
			t.Fatalf("frame %d carries id %d", i, f.FID)
		}
	}
}

func TestQueriesFromPermutesIDsOnly(t *testing.T) {
	bodies := mixedBodies(12, rand.New(rand.NewSource(1)))
	a := queriesFrom(bodies, 300, 240, 1, rand.New(rand.NewSource(1)))
	b := queriesFrom(bodies, 300, 240, 1, rand.New(rand.NewSource(2)))
	seen := map[int]bool{}
	same := true
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("body %d differs between seeds", i)
		}
		same = same && a[i].ID == b[i].ID
		seen[b[i].ID] = true
	}
	if same || len(seen) != len(bodies) || !seen[1] || !seen[len(bodies)] {
		t.Errorf("ids under seed 2: %v (same as seed 1: %v)", seen, same)
	}
	if !coversAllClasses(a) {
		t.Errorf("twelve mixed bodies name fewer than four classes")
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (tvqd (x)) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 8 0 100 1000000 2000 18446744073709551615")
	status := []byte("Name:\ttvqd\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n")
	u := parseProc(stat, status)
	if u.cpuSeconds != 3 || u.peakRSSMB != 20 {
		t.Errorf("parseProc = %+v, want 3 CPU seconds and 20 MiB", u)
	}
	if z := parseProc(nil, nil); z != (procUsage{}) {
		t.Errorf("empty /proc files gave %+v", z)
	}
}

func TestWaitUntilReachesDeadline(t *testing.T) {
	clk := clock{time.Now()}
	deadline := clk.now() + int64(2*time.Millisecond)
	waitUntil(clk, deadline)
	if late := clk.now() - deadline; late < 0 || late > int64(20*time.Millisecond) {
		t.Errorf("waitUntil returned %d ns after its deadline", late)
	}
}

func TestFilterFrameOwnsWhatItBuilds(t *testing.T) {
	f := tvq.Frame{Objects: objset.New(1, 2, 3), Classes: map[objset.ID]vr.Class{1: 0, 2: 1, 3: 0}}
	kept := filterFrame(f, map[vr.Class]bool{0: true})
	if kept.Objects.Len() != 2 || !kept.Owned || kept.Objects.Contains(2) {
		t.Errorf("filtered frame %v owned=%v", kept.Objects, kept.Owned)
	}
	all := filterFrame(f, map[vr.Class]bool{0: true, 1: true})
	if all.Owned || all.Objects.Len() != 3 {
		t.Errorf("a frame that loses nothing must stay borrowed: %v owned=%v", all.Objects, all.Owned)
	}
}
