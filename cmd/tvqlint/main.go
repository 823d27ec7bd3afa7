// Command tvqlint is the project's invariant multichecker: it runs the
// internal/analysis suite — noalloc, wraperr, lockorder — over the
// given packages and reports violations of the engine's hot-path,
// error-wrapping and lock-order contracts as compile-time diagnostics.
//
// Usage:
//
//	go run ./cmd/tvqlint ./...
//	go run ./cmd/tvqlint -json ./internal/core ./internal/engine
//	go run ./cmd/tvqlint -only noalloc,lockorder ./...
//	go run ./cmd/tvqlint -skip noalloc -github ./...
//
// Analyzer selection: -only runs exactly the named analyzers, -skip
// drops the named ones from the suite; both take comma-separated
// analyzer names (see -analyzers for the list) and naming an unknown
// analyzer is a usage error. Output: the default is one line per
// finding, -json a JSON array, -github GitHub Actions workflow
// commands (::error file=...) so findings surface as inline PR
// annotations.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on a
// usage or load error (including an analyzer that failed to run).
// Diagnostics are suppressed by
// //lint:ignore <analyzer> <reason> (same or next line) and
// //lint:file-ignore <analyzer> <reason> (whole file); see
// internal/analysis and the DESIGN.md "Static invariants" section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tvq/internal/analysis"
	"tvq/internal/analysis/lockorder"
	"tvq/internal/analysis/noalloc"
	"tvq/internal/analysis/wraperr"
)

// Suite is the gating analyzer set, in diagnostic-priority order.
var suite = []*analysis.Analyzer{
	noalloc.Analyzer,
	wraperr.Analyzer,
	lockorder.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// selectAnalyzers applies -only/-skip to the suite. Unknown names are
// usage errors: a typo in a CI invocation must fail loudly, not
// silently lint nothing.
func selectAnalyzers(only, skip string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	if only != "" && skip != "" {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	if only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("-only: unknown analyzer %q (see -analyzers)", name)
			}
			want[name] = true
		}
		if len(want) == 0 {
			return nil, fmt.Errorf("-only: no analyzers named")
		}
		// Keep suite order rather than flag order so diagnostics sort
		// the same way no matter how the flag was spelled.
		var sel []*analysis.Analyzer
		for _, a := range suite {
			if want[a.Name] {
				sel = append(sel, a)
			}
		}
		return sel, nil
	}
	if skip != "" {
		drop := make(map[string]bool)
		for _, name := range strings.Split(skip, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("-skip: unknown analyzer %q (see -analyzers)", name)
			}
			drop[name] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range suite {
			if !drop[a.Name] {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			return nil, fmt.Errorf("-skip: all analyzers skipped")
		}
		return sel, nil
	}
	return suite, nil
}

// githubLine renders a finding as a GitHub Actions workflow command so
// the Actions runner turns it into an inline annotation on the PR diff.
// The message data (after ::) must have % newline-escaped per the
// workflow-command spec; file paths and messages here never contain
// newlines.
func githubLine(f analysis.Finding) string {
	msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(f.Message)
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s (%s)", f.File, f.Line, f.Column, msg, f.Analyzer)
}

// run is the testable entry point: it lints the packages named by args
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tvqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	githubOut := fs.Bool("github", false, "emit diagnostics as GitHub Actions ::error annotations")
	list := fs.Bool("analyzers", false, "list the analyzers in the suite and exit")
	only := fs.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := fs.String("skip", "", "comma-separated analyzers to leave out")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tvqlint [-json|-github] [-only names | -skip names] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *githubOut {
		fmt.Fprintln(stderr, "tvqlint: -json and -github are mutually exclusive")
		return 2
	}
	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintf(stderr, "tvqlint: %v\n", err)
		return 2
	}

	pkgs, err := analysis.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *githubOut:
		for _, f := range findings {
			fmt.Fprintln(stdout, githubLine(f))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
