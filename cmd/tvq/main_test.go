package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tvq"
)

// tvqRun runs the command on args and returns its exit status and output.
func tvqRun(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// writeTrace writes a small generated trace in the codec's format (csv
// when name is "csv") and returns its path.
func writeTrace(t *testing.T, format string) string {
	t.Helper()
	reg := tvq.StandardRegistry()
	tr, err := tvq.GenerateDataset(tvq.Profile{
		Name: "t", Frames: 120, Objects: 14, FramesPerObj: 40, OccPerObj: 1,
		ClassMix: map[string]float64{"person": 0.6, "car": 0.4},
	}, 5, tvq.Noise{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ext := map[string]string{"csv": ".csv", "jsonl": ".jsonl", "binary": ".tvqf"}[format]
	path := filepath.Join(t.TempDir(), "trace"+ext)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if format == "csv" {
		err = tvq.WriteTraceCSV(f, tr, reg)
	} else {
		codec, _ := tvq.CodecByName(format)
		err = codec.WriteTrace(f, tr, reg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-nosuch"}, {"-w", "wide"}, {"-q"}} {
		if code, _, stderr := tvqRun(args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a usage message", args, code, stderr)
		}
	}
}

func TestBadRuns(t *testing.T) {
	trace := writeTrace(t, "csv")
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, args := range [][]string{
		{"-q", "person >= 1", "-w", "10", "-d", "5", missing},
		{"-q", "person >= 1", "-w", "10", "-d", "5"}, // no trace
		{trace}, // no query
		{"-q", "person >= 1 @ 10", trace},
		{"-q", "person >= 1", "-w", "10", "-d", "5", "-stream", trace}, // csv does not stream
		{"-resume", missing, trace},
	} {
		if code, _, stderr := tvqRun(args...); code != 1 || !strings.HasPrefix(stderr, "tvq: ") {
			t.Errorf("%v: exit %d, stderr %q; want 1 and a tvq: message", args, code, stderr)
		}
	}
}

var summary = regexp.MustCompile(`^(\d+) matches over (\d+) frames \(2 queries, method=(\w+)\)\n$`)

// TestQueryTrace runs two queries over one small trace in every format,
// loaded and streamed, with each method: every run prints one line per
// match and a summary that counts them, and all runs print the same
// matches over all 120 frames, the trace's trailing empty frames
// included.
func TestQueryTrace(t *testing.T) {
	queries := []string{"-q", "person >= 2", "-q", "car >= 1 AND person >= 1 @ 20:8", "-w", "30", "-d", "10"}
	var want [2]string // matches, frames
	for k, run := range [][]string{
		{"csv", "ssg"}, {"csv", "naive"}, {"csv", "mfs"},
		{"jsonl", "ssg"}, {"jsonl", "ssg", "-stream"}, {"binary", "ssg", "-stream"},
	} {
		args := append(append([]string{}, queries...), "-method", run[1])
		args = append(append(args, run[2:]...), writeTrace(t, run[0]))
		code, out, stderr := tvqRun(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", run, code, stderr)
		}
		i := strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n") + 1
		matches, sum := out[:i], out[i:]
		m := summary.FindStringSubmatch(sum)
		if m == nil {
			t.Fatalf("%v: summary %q", run, sum)
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 || n != strings.Count(matches, "\n") {
			t.Errorf("%v: summary counts %s matches, %d printed", run, m[1], strings.Count(matches, "\n"))
		}
		if m[3] != run[1] {
			t.Errorf("%v: summary %q", run, sum)
		}
		if k == 0 {
			want = [2]string{matches, m[2]}
		} else if matches != want[0] || m[2] != want[1] {
			t.Errorf("%v: %s frames and their matches differ from the first run's %s frames", run, m[2], want[1])
		}
	}
	if want[1] != "120" {
		t.Errorf("%s frames, want 120", want[1])
	}

	code, out, _ := tvqRun(append(queries, "-quiet", writeTrace(t, "csv"))...)
	if code != 0 || strings.Count(out, "\n") != 1 || !summary.MatchString(out) {
		t.Errorf("-quiet: exit %d, %q; want the summary line alone", code, out)
	}
}
