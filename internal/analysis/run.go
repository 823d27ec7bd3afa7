package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one reported diagnostic, resolved to a file position and
// tagged with the analyzer that produced it.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Column, f.Message, f.Analyzer)
}

// Run applies every analyzer to every package, filters the diagnostics
// through //lint:ignore directives, and returns the surviving findings
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		ignores := buildIgnoreIndex(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ignores.suppressed(a.Name, pos) {
					return
				}
				out = append(out, Finding{
					Analyzer: a.Name,
					Pos:      pos,
					File:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
