// Command benchmark is the repository's yardstick: four fixed workloads
// driven through the public functions of each layer, a handful of
// end-to-end metrics per workload, and a traced replay that says which
// layer the time went to. BENCHMARK.json at the repository root names
// the command, the workloads and the metrics; README.md in this
// directory explains why each workload exists and how to compare two
// commits.
//
//	bash benchmark/run.sh --workload dense-static --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -workload all -out results.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"tvq"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	scenes   int64
	seconds  float64
	scale    float64
	trace    bool
	out      string
	spans    string
	update   string
	tvqd     string
	tmp      string
	verbose  bool

	clk    clock
	stderr io.Writer
}

var workloadNames = []string{"dense-static", "sparse-fanout", "serve-disorder", "churn-checkpoint"}

var methods = []tvq.Method{tvq.MethodNaive, tvq.MethodMFS, tvq.MethodSSG}

// defaultMethod is the strategy a session runs when none is asked for;
// the replay has to name it to build the same generator.
var defaultMethod = func() tvq.Method {
	s, err := tvq.Open(context.Background())
	if err != nil {
		panic(err)
	}
	defer s.Close()
	return s.Method()
}()

// setup_s is the median of a run's set-ups. A set-up lasts between 6 ms
// and 100 ms depending on the workload, so it is repeated until a second
// has gone into it, at least minSetups and at most maxSetups times: the
// median of a short set-up then rests on as much measured time as that
// of a long one.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 1e9 // ns

	minPasses = 3 // timed passes per run, however long they take
)

// workload is what the runner needs from each of the four.
type workload interface {
	// setup builds the inputs and starts whatever must run before
	// frames flow. It is called several times; each call replaces the
	// previous one's state.
	setup(ctx context.Context) error
	close()
	inputDigests() []string
	// verify gates the run: the replay must reproduce the real
	// session's bytes and the three generators must agree.
	verify(ctx context.Context) error
	// timed runs one pass of fixed size on a fresh session, untraced.
	timed(ctx context.Context) (*passStats, error)
	// layers runs the traced passes and returns the per-layer metrics.
	layers(ctx context.Context) (map[string]float64, *passStats, []*spanLog, error)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := &config{stderr: stderr, clk: clock{time.Now()}}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "orders the clips, assigns the query ids and shuffles arrivals; the load stays the same")
	fs.Int64Var(&cfg.scenes, "scenes", 1, "pool the scenes and query bodies are drawn from; change it to measure on unseen inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "keep starting timed passes until this much time has been measured")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplies every input length (the test suite runs at a small scale)")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced passes and prints the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "also write the results as JSON to this file")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the recorded spans as JSON lines to this file")
	fs.StringVar(&cfg.update, "update-expected", "", "write the pinned digests and counts of this run to this file (benchmark/expected.json)")
	fs.StringVar(&cfg.tvqd, "tvqd", "", "prebuilt tvqd binary; built with go build when empty")
	fs.StringVar(&cfg.tmp, "tmp", "", "parent of the scratch directory (default: the system's)")
	fs.BoolVar(&cfg.verbose, "v", false, "report every timed pass on standard error as it ends")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.scale <= 0 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -scale and -seconds must be positive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp(cfg.tmp, "tvq-benchmark-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	report := report{Env: stamp(cfg)}
	var logs []*spanLog
	failed := false
	for _, name := range names {
		// The driver gives a run 180 s; a daemon that stops answering
		// must end the run with an error before that.
		wctx, cancel := context.WithTimeout(ctx, 170*time.Second)
		res, spans, err := runWorkload(wctx, cfg, name, tmp)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			res = &result{Workload: name, Attempted: 1, Failed: 1}
		}
		failed = failed || !res.Correct
		res.print(stdout)
		report.Results = append(report.Results, res)
		logs = append(logs, spans...)
	}
	if cfg.spans != "" && len(logs) > 0 {
		if err := writeSpans(cfg.spans, logs); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			failed = true
		}
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, report); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			failed = true
		}
	}
	if cfg.update != "" && !failed {
		if err := writeJSON(cfg.update, report.expected(cfg)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			failed = true
		}
	}
	fmt.Fprintln(stdout, report.contractLine(!failed))
	if failed {
		return 1
	}
	return 0
}

func newWorkload(ctx context.Context, cfg *config, name, tmp string) (workload, error) {
	if name != "serve-disorder" {
		return newInproc(name, cfg), nil
	}
	bin := cfg.tvqd
	if bin == "" {
		var err error
		if bin, err = buildDaemon(ctx, tmp); err != nil {
			return nil, err
		}
	}
	return &serve{cfg: cfg, bin: bin}, nil
}

// runWorkload sets the workload up, verifies it, and measures it: timed
// passes for the end-to-end metrics, or the traced passes for the
// per-layer ones.
func runWorkload(ctx context.Context, cfg *config, name, tmp string) (*result, []*spanLog, error) {
	w, err := newWorkload(ctx, cfg, name, tmp)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()

	var setups []float64
	budget := int64(setupBudget * min(1, cfg.scale)) // scaled-down inputs get scaled-down patience
	for begun := cfg.clk.now(); len(setups) < minSetups || (len(setups) < maxSetups && cfg.clk.now()-begun < budget); {
		t0 := cfg.clk.now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(cfg.clk.now()-t0)/1e9)
	}
	res := &result{Workload: name, Correct: true, Inputs: w.inputDigests()}
	if err := w.verify(ctx); err != nil {
		return nil, nil, fmt.Errorf("verification: %w", err)
	}

	var passes []*passStats
	var spans []*spanLog
	if cfg.trace {
		layers, st, logs, err := w.layers(ctx)
		if err != nil {
			return nil, nil, err
		}
		passes, spans = []*passStats{st}, logs
		for _, def := range perLayer {
			res.Metrics = append(res.Metrics, metric{Name: def.name, Unit: def.unit, Value: layers[def.name], Better: def.better})
		}
	} else {
		measured := int64(0)
		for len(passes) < minPasses || float64(measured) < cfg.seconds*1e9 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			st, err := w.timed(ctx)
			if err != nil {
				return nil, nil, err
			}
			passes = append(passes, st)
			measured += st.elapsedNS
			if cfg.verbose {
				fmt.Fprintf(cfg.stderr, "%s pass %d: %d frames in %.3f s, %.1f frames/s\n", name, len(passes),
					st.frames, float64(st.elapsedNS)/1e9, float64(st.rateFrames)/float64(st.rateNS)*1e9)
			}
		}
		res.Metrics = endToEnd(passes, setups)
	}

	first := passes[0]
	res.Output, res.Counts = first.out.String(), first.counts
	res.MatchesPerFrame = float64(first.matches) / float64(first.frames)
	for _, st := range passes {
		res.Attempted += st.counts.total()
		res.Failed += st.failed
		if st.out != first.out || st.counts != first.counts {
			res.Failed++
			fmt.Fprintf(cfg.stderr, "%s: passes disagree: %v %+v against %v %+v\n", name, st.out, st.counts, first.out, first.counts)
		}
	}
	if err := res.checkExpected(cfg); err != nil {
		res.Failed++
		fmt.Fprintf(cfg.stderr, "%s: %v\n", name, err)
	}
	if res.Failed > 0 {
		// A wrong output spoils everything the run measured.
		res.Correct, res.Failed = false, res.Attempted
	}
	return res, spans, nil
}

// endToEnd reduces the passes to the metrics BENCHMARK.json lists under
// end_to_end: one value per pass, reported as median and quartiles.
func endToEnd(passes []*passStats, setups []float64) []metric {
	per := func(f func(*passStats) float64) []float64 {
		out := make([]float64, len(passes))
		for i, st := range passes {
			out[i] = f(st)
		}
		return out
	}
	// The quartiles of frames_per_s are those of the passes as they ran;
	// its value is taken over the steady pass time.
	rate := summary("frames_per_s", "frames/s", per(func(st *passStats) float64 {
		return float64(st.rateFrames) / float64(st.rateNS) * 1e9
	}))
	rate.Value = float64(passes[0].rateFrames) / steadyNS(passes) * 1e9
	return []metric{
		summary("setup_s", "s", setups),
		rate,
		summary("latency_us_p50", "us", per(func(st *passStats) float64 { return percentileNS(st.lat, 0.50) / 1e3 })),
		summary("latency_us_p99", "us", per(func(st *passStats) float64 { return percentileNS(st.lat, 0.99) / 1e3 })),
		summary("allocs_per_frame", "allocs/frame", per(func(st *passStats) float64 {
			return float64(st.mem.mallocs) / float64(st.frames)
		})),
		summary("alloc_kb_per_frame", "KiB/frame", per(func(st *passStats) float64 {
			return float64(st.mem.bytes) / 1024 / float64(st.frames)
		})),
		summary("wire_bytes_per_frame", "bytes/frame", per(func(st *passStats) float64 {
			return float64(st.wireBytes) / float64(st.counts.Frames)
		})),
	}
}

// result is one workload's outcome.
type result struct {
	Workload        string   `json:"workload"`
	Correct         bool     `json:"correct"`
	Attempted       int64    `json:"attempted"`
	Failed          int64    `json:"failed"`
	Inputs          []string `json:"inputs"`
	Output          string   `json:"output"`
	MatchesPerFrame float64  `json:"matches_per_frame"`
	Counts          opCounts `json:"counts"`
	Metrics         []metric `json:"metrics"`
}

// print writes one "workload metric value unit [q1 q3 n]" line per
// metric.
func (r *result) print(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s", r.Workload, m.Name, formatValue(m.Value), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " [%s %s %d]", formatValue(m.Q1), formatValue(m.Q3), m.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s output %s correct=%v attempted=%d failed=%d\n", r.Workload, r.Output, r.Correct, r.Attempted, r.Failed)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// environment stamps every result with what produced it.
type environment struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scenes     int64   `json:"scenes"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func stamp(cfg *config) environment {
	env := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Commit: "unknown",
		Seed: cfg.seed, Scenes: cfg.scenes, Scale: cfg.scale, Seconds: cfg.seconds, Traced: cfg.trace,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

// contractLine is the last line of standard output: the one JSON object
// the driver reads. With several workloads in one run the metric names
// carry the workload.
func (r report) contractLine(correct bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Metrics: map[string]value{}}
	for _, res := range r.Results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, m := range res.Metrics {
			name := m.Name
			if len(r.Results) > 1 {
				name = res.Workload + "/" + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	out, _ := json.Marshal(line)
	return string(out)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Pinned inputs and outputs. expected.json holds, for seed 1 of scene
// pool 1 at scale 1, the digest of every generated trace, the output
// digest, the matches per frame and the operation counts of one pass of
// each workload. A run with those settings must reproduce them: a
// change to a generator or to a result fails loudly instead of quietly
// shifting the load.

//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	Seed      int64                    `json:"seed"`
	Scenes    int64                    `json:"scenes"`
	Scale     float64                  `json:"scale"`
	Workloads map[string]expectedEntry `json:"workloads"`
}

type expectedEntry struct {
	Inputs          []string `json:"inputs"`
	Output          string   `json:"output"`
	MatchesPerFrame float64  `json:"matches_per_frame"`
	Counts          opCounts `json:"counts"`
}

func (r report) expected(cfg *config) expectedFile {
	f := expectedFile{Seed: cfg.seed, Scenes: cfg.scenes, Scale: cfg.scale, Workloads: map[string]expectedEntry{}}
	for _, res := range r.Results {
		f.Workloads[res.Workload] = expectedEntry{res.Inputs, res.Output, res.MatchesPerFrame, res.Counts}
	}
	return f
}

func (r *result) checkExpected(cfg *config) error {
	var want expectedFile
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	e, pinned := want.Workloads[r.Workload]
	if cfg.update != "" || !pinned || cfg.seed != want.Seed || cfg.scenes != want.Scenes || cfg.scale != want.Scale {
		return nil
	}
	if strings.Join(r.Inputs, ",") != strings.Join(e.Inputs, ",") {
		return fmt.Errorf("generated inputs changed: digests %v, expected.json pins %v", r.Inputs, e.Inputs)
	}
	if r.Output != e.Output || r.Counts != e.Counts || r.MatchesPerFrame != e.MatchesPerFrame {
		return fmt.Errorf("results changed: output %s, %.6f matches/frame, counts %+v; expected.json pins %s, %.6f, %+v",
			r.Output, r.MatchesPerFrame, r.Counts, e.Output, e.MatchesPerFrame, e.Counts)
	}
	return nil
}
