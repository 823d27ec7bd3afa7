// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis on the standard library alone: an
// Analyzer runs over one type-checked package at a time and reports
// position-anchored diagnostics. The project keeps its invariant
// checkers (internal/analysis/...) and the cmd/tvqlint multichecker on
// this framework so the lint suite builds with zero external
// dependencies; the Analyzer/Pass shape deliberately mirrors
// go/analysis so the checkers could migrate to it mechanically.
//
// The suite exists for invariants the type system cannot see and that
// a syntactic check can pin at the line that breaks them: allocation
// on the zero-alloc MCOS path (noalloc), errors wrapped without %w
// (wraperr) and blocking sends under a mutex (lockorder). Ownership and
// result-lifetime contracts are held by hostile-caller tests instead;
// DESIGN.md "Static invariants" documents each contract and what
// holds it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. By convention a single lowercase word.
	Name string

	// Doc is the one-paragraph contract statement shown by
	// `tvqlint -help`.
	Doc string

	// Run applies the analyzer to one package and reports findings
	// through pass.Report. An error from Run aborts the whole lint run
	// (it signals a broken analyzer, not a finding).
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer invocation.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The analyzer
// name is attached by the runner.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
