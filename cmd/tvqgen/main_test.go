package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tvq"
)

// gen runs the command on args and returns its exit status and output.
func gen(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-nosuch"}, {"-frames", "many"}} {
		if code, _, stderr := gen(args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a usage message", args, code, stderr)
		}
	}
	if code, _, _ := gen("-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}

func TestBadArguments(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "out.csv")
	for _, args := range [][]string{
		{"-frames", "20", "-objects", "5", "-o", missing},
		{"-dataset", "X9"},
		{"-frames", "20", "-objects", "5", "-format", "xml"},
		{"-frames", "20", "-objects", "5", "-disorder", "2"}, // csv has no frame order
		{"-frames", "20", "-objects", "5", "-disorder", "-1", "-format", "jsonl"},
	} {
		if code, _, stderr := gen(args...); code != 1 || !strings.HasPrefix(stderr, "tvqgen: ") {
			t.Errorf("%v: exit %d, stderr %q; want 1 and a tvqgen: message", args, code, stderr)
		}
	}
}

// TestGenerate writes one small custom trace in each format, to stdout
// and to a file, and reads every copy back as the same trace; -stats
// reports the profile's frame count.
func TestGenerate(t *testing.T) {
	args := []string{"-frames", "60", "-objects", "12", "-fpo", "15", "-seed", "3"}
	code, stats, _ := gen(append(args, "-stats")...)
	if code != 0 || !strings.HasPrefix(stats, "dataset=custom frames=60 ") {
		t.Fatalf("-stats: exit %d, %q", code, stats)
	}
	reg := tvq.StandardRegistry()
	var want string
	for _, format := range []string{"csv", "jsonl", "binary"} {
		code, out, stderr := gen(append(args, "-format", format)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, stderr)
		}
		path := filepath.Join(t.TempDir(), "trace."+format)
		if code, _, stderr := gen(append(args, "-format", format, "-o", path)...); code != 0 {
			t.Fatalf("%s -o: exit %d: %s", format, code, stderr)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, []byte(out)) {
			t.Errorf("%s: -o wrote other bytes than stdout got", format)
		}
		var tr *tvq.Trace
		if format == "csv" {
			tr, err = tvq.ReadTraceCSV(strings.NewReader(out), reg)
		} else {
			codec, _ := tvq.CodecByName(format)
			tr, err = codec.ReadTrace(strings.NewReader(out), reg)
		}
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var b bytes.Buffer
		if err := tvq.WriteTraceCSV(&b, tr, reg); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = b.String()
			if tr.Len() == 0 || tr.Len() > 60 {
				t.Fatalf("trace of %d frames, want 1 to 60", tr.Len())
			}
		} else if b.String() != want {
			t.Errorf("%s: trace differs from the csv one", format)
		}
	}
}
