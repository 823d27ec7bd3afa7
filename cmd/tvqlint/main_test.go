package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The fixture packages under internal/analysis are real Go packages in
// this module, so the multichecker can be smoke-tested end to end
// against known-red and known-clean inputs without inventing a second
// fixture tree.
const (
	redFixture   = "tvq/internal/analysis/noalloc/testdata/src/a"
	cleanPackage = "tvq/internal/analysis"
)

func TestRunRedFixtureExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{redFixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "noalloc") {
		t.Errorf("diagnostics do not name the analyzer:\n%s", stdout.String())
	}
}

func TestRunCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{cleanPackage}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output: %s", stdout.String())
	}
}

// TestRunJSONSchema pins the -json output contract: a JSON array of
// objects with analyzer/file/line/column/message, parseable by CI
// tooling, and an exit code independent of the output format.
func TestRunJSONSchema(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", redFixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json reported no findings on a red fixture")
	}
	for i, f := range findings {
		if f.Analyzer == "" || f.File == "" || f.Line <= 0 || f.Column <= 0 || f.Message == "" {
			t.Errorf("finding %d incomplete: %+v", i, f)
		}
	}
}

// TestRunJSONCleanEmitsEmptyArray: a clean -json run must still print
// valid JSON ([]), not nothing, so pipelines can always parse stdout.
func TestRunJSONCleanEmitsEmptyArray(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", cleanPackage}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	var findings []json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("clean -json output is not valid JSON: %v\n%q", err, stdout.String())
	}
	if len(findings) != 0 {
		t.Errorf("clean run reported findings: %s", stdout.String())
	}
}

func TestRunAnalyzersListsSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"noalloc", "wraperr", "lockorder"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-analyzers output missing %s:\n%s", name, stdout.String())
		}
	}
	if n := strings.Count(stdout.String(), "\n"); n != 3 {
		t.Errorf("-analyzers lists %d analyzers, want 3:\n%s", n, stdout.String())
	}
}

// TestRunOnlySelectsAnalyzer: -only with an analyzer that has no
// findings on the red fixture must exit 0, while -only with the one
// that does must still exit 1 — selection actually narrows the suite.
func TestRunOnlySelectsAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "wraperr", redFixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("-only wraperr on the noalloc fixture: exit = %d, want 0; stdout: %s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-only", "noalloc", redFixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("-only noalloc on the noalloc fixture: exit = %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasSuffix(line, "(noalloc)") {
			t.Errorf("-only noalloc reported another analyzer's finding: %s", line)
		}
	}
}

// TestRunSkipDropsAnalyzer: skipping the only analyzer that fires on
// the red fixture must turn the run clean.
func TestRunSkipDropsAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-skip", "noalloc", redFixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("-skip noalloc: exit = %d, want 0; stdout: %s", code, stdout.String())
	}
}

func TestRunUnknownAnalyzerExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuchanalyzer", redFixture},
		{"-skip", "nosuchanalyzer", redFixture},
		{"-only", "noalloc", "-skip", "wraperr", redFixture},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

// TestRunGitHubAnnotations pins the -github output contract: one
// ::error workflow command per finding with file/line/col properties,
// so the Actions runner renders findings as inline PR annotations.
func TestRunGitHubAnnotations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-github", redFixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("-github reported no findings on a red fixture")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=") {
			t.Errorf("line is not a workflow command: %q", line)
			continue
		}
		if !strings.Contains(line, ",line=") || !strings.Contains(line, ",col=") || !strings.Contains(line, "::") {
			t.Errorf("annotation missing properties: %q", line)
		}
		if !strings.Contains(line, "(noalloc)") {
			t.Errorf("annotation does not name the analyzer: %q", line)
		}
	}
	// Clean run: no output at all, exit 0.
	stdout.Reset()
	if code := run([]string{"-github", cleanPackage}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -github run: exit = %d, want 0", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("clean -github run produced output: %s", stdout.String())
	}
}

func TestRunBadPackageExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"tvq/does/not/exist"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
