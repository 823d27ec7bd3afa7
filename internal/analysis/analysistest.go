package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches one expectation inside a `// want` comment: a
// backquoted regular expression.
var wantRe = regexp.MustCompile("`([^`]*)`")

// RunFixture loads the fixture package rooted at dir (a directory of
// .go files inside this module, conventionally under testdata/src/),
// runs the analyzer over it, and compares the diagnostics against the
// fixture's `// want` comments:
//
//	p.buf = make([]uint64, n) // want `make allocates`
//
// Every `// want` expectation must be matched by a diagnostic on that
// line, every diagnostic must be covered by an expectation, and each
// backquoted pattern is a regular expression applied to the message.
// Mismatches fail t. The loaded findings are returned for additional
// assertions.
func RunFixture(t *testing.T, a *Analyzer, dir string) []Finding {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(abs, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	got := make(map[key][]string)
	for _, f := range findings {
		k := key{filepath.Base(f.File), f.Line}
		got[k] = append(got[k], f.Message)
	}

	// Collect expectations by scanning the fixture sources directly:
	// `// want` comments may trail any line, including ones inside
	// multi-line expressions.
	matched := make(map[key][]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			name := pkg.Fset.Position(file.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				_, comment, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				k := key{filepath.Base(name), i + 1}
				for _, m := range wantRe.FindAllStringSubmatch(comment, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
					}
					found := false
					for gi, msg := range got[k] {
						for len(matched[k]) <= gi {
							matched[k] = append(matched[k], false)
						}
						if !matched[k][gi] && re.MatchString(msg) {
							matched[k][gi] = true
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s:%d: no diagnostic matching %q (got %v)", name, i+1, m[1], got[k])
					}
				}
			}
		}
	}
	for k, msgs := range got {
		for gi, msg := range msgs {
			if gi >= len(matched[k]) || !matched[k][gi] {
				t.Errorf("%s:%d: unexpected diagnostic %q", k.file, k.line, msg)
			}
		}
	}
	return findings
}
