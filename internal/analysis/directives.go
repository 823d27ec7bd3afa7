package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suite's comment directives:
//
//	//lint:ignore <checks> <reason>       suppress on this or the next line
//	//lint:file-ignore <checks> <reason>  suppress for the whole file
//	//tvq:noalloc                         (func doc) enforce the noalloc contract
//	//tvq:coldalloc <reason>              mark one deliberate cold-path allocation
//
// <checks> is a comma-separated list of analyzer names. The lint:ignore
// forms follow staticcheck's syntax so editors treat them uniformly; a
// reason is required — a suppression without one is itself malformed
// and does not suppress.

// ignoreIndex records, per file, which (line, analyzer) pairs are
// suppressed and which analyzers are suppressed file-wide.
type ignoreIndex struct {
	fset  *token.FileSet
	lines map[string]map[int]map[string]bool // file → line → analyzer set
	files map[string]map[string]bool         // file → analyzer set
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	ix := &ignoreIndex{
		fset:  fset,
		lines: make(map[string]map[int]map[string]bool),
		files: make(map[string]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				switch {
				case strings.HasPrefix(text, "lint:ignore "):
					checks, reason := splitDirective(text[len("lint:ignore "):])
					if reason == "" {
						continue // malformed: no reason given
					}
					pos := fset.Position(c.Pos())
					for _, name := range checks {
						// The directive covers its own line and the next
						// one, so it works both trailing a statement and
						// on a line of its own above it.
						ix.addLine(pos.Filename, pos.Line, name)
						ix.addLine(pos.Filename, pos.Line+1, name)
					}
				case strings.HasPrefix(text, "lint:file-ignore "):
					checks, reason := splitDirective(text[len("lint:file-ignore "):])
					if reason == "" {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, name := range checks {
						ix.addFile(pos.Filename, name)
					}
				}
			}
		}
	}
	return ix
}

func splitDirective(s string) (checks []string, reason string) {
	s = strings.TrimSpace(s)
	list, reason, _ := strings.Cut(s, " ")
	for _, c := range strings.Split(list, ",") {
		if c = strings.TrimSpace(c); c != "" {
			checks = append(checks, c)
		}
	}
	return checks, strings.TrimSpace(reason)
}

func (ix *ignoreIndex) addLine(file string, line int, name string) {
	byLine := ix.lines[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		ix.lines[file] = byLine
	}
	set := byLine[line]
	if set == nil {
		set = make(map[string]bool)
		byLine[line] = set
	}
	set[name] = true
}

func (ix *ignoreIndex) addFile(file, name string) {
	set := ix.files[file]
	if set == nil {
		set = make(map[string]bool)
		ix.files[file] = set
	}
	set[name] = true
}

// suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by an ignore directive. The name "tvqlint" suppresses
// every analyzer in the suite.
func (ix *ignoreIndex) suppressed(name string, pos token.Position) bool {
	if set := ix.files[pos.Filename]; set[name] || set["tvqlint"] {
		return true
	}
	if set := ix.lines[pos.Filename][pos.Line]; set[name] || set["tvqlint"] {
		return true
	}
	return false
}

// HasNoallocDirective reports whether the function declaration carries
// the //tvq:noalloc annotation in its doc comment.
func HasNoallocDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "tvq:noalloc" || strings.HasPrefix(text, "tvq:noalloc ") {
			return true
		}
	}
	return false
}

// ColdallocLines returns the set of (file, line) pairs covered by a
// //tvq:coldalloc directive in the given files: the directive's own
// line and the next, so it works trailing the allocation or on the
// line above it. A reason is required.
func ColdallocLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "tvq:coldalloc ") {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]bool)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = true
				byLine[pos.Line+1] = true
			}
		}
	}
	return out
}
