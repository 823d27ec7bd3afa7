// Package lockorder flags blocking delivery while holding an engine or
// plan mutex — the deadlock shape PR 5's session work is built to
// avoid: a Deliver (or a bare channel send) that blocks on a slow
// consumer while holding a lock stalls every other path that needs the
// same lock, including the Cancel that would have unblocked the
// consumer. The codebase's idiom is snapshot-under-lock, then unlock,
// then deliver (session.deliverLocked), or a select with a default
// case for deliberately non-blocking sends under a lock (fan-out).
//
// The analysis is straight-line and function-local: it tracks
// x.Lock()/x.RLock() and the matching unlocks on sync.Mutex and
// sync.RWMutex receivers through each function body. While at least
// one mutex is held it flags channel send statements and calls to any
// method named Deliver. defer x.Unlock() leaves the lock held to the
// end of the function (that is the point of the idiom). Sends inside a
// select that has a default clause are exempt — they cannot block.
// close() is not a send and is never flagged; closing a subscription
// channel under the sink mutex is legitimate (sinkchan.Chan.Close).
package lockorder

import (
	"go/ast"
	"go/types"
	"strings"

	"tvq/internal/analysis"
)

// Analyzer flags blocking sends and Deliver calls under a held mutex.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flags channel sends and Sink.Deliver calls made while holding a mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := &scanner{pass: pass}
			s.block(fn.Body.List, nil)
		}
	}
	return nil
}

type scanner struct {
	pass *analysis.Pass
}

// block scans a statement list in order. held is the ordered list of
// mutex expressions locked on entry; nested control flow gets a copy,
// so a lock taken inside a branch does not leak past it (straight-line
// conservatism — the analyzer only asserts what it can see).
func (s *scanner) block(stmts []ast.Stmt, held []string) {
	held = append([]string(nil), held...)
	for _, stmt := range stmts {
		switch st := stmt.(type) {
		case *ast.SendStmt:
			if len(held) > 0 {
				s.pass.Reportf(st.Pos(),
					"channel send while holding %s: a blocked consumer deadlocks every path that needs the lock", held[0])
			}
			held = s.scanExprs(held, st.Chan, st.Value)
		case *ast.DeferStmt:
			// defer x.Unlock() keeps the lock held to function end; any
			// other deferred call runs after the body, out of scope.
		case *ast.IfStmt:
			if st.Init != nil {
				s.block([]ast.Stmt{st.Init}, held)
			}
			s.block(st.Body.List, held)
			if st.Else != nil {
				s.block([]ast.Stmt{st.Else}, held)
			}
		case *ast.BlockStmt:
			s.block(st.List, held)
		case *ast.ForStmt:
			s.block(st.Body.List, held)
		case *ast.RangeStmt:
			s.block(st.Body.List, held)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				s.block(c.(*ast.CaseClause).Body, held)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				s.block(c.(*ast.CaseClause).Body, held)
			}
		case *ast.SelectStmt:
			s.scanSelect(st, held)
		case *ast.GoStmt:
			// The goroutine body runs without this frame's locks.
		case *ast.LabeledStmt:
			s.block([]ast.Stmt{st.Stmt}, held)
		default:
			held = s.scanStmt(held, stmt)
		}
	}
}

// scanSelect handles the one sanctioned shape for sending under a
// lock: a select with a default clause is non-blocking, so its sends
// are exempt. Without a default, a comm-clause send blocks like any
// other.
func (s *scanner) scanSelect(sel *ast.SelectStmt, held []string) {
	hasDefault := false
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range sel.Body.List {
		clause := c.(*ast.CommClause)
		if send, ok := clause.Comm.(*ast.SendStmt); ok && !hasDefault && len(held) > 0 {
			s.pass.Reportf(send.Pos(),
				"blocking select send while holding %s: add a default case or deliver after unlocking", held[0])
		}
		s.block(clause.Body, held)
	}
}

// scanStmt processes a simple statement: lock/unlock calls update the
// held set, Deliver calls under a lock are flagged.
func (s *scanner) scanStmt(held []string, stmt ast.Stmt) []string {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, without this frame's locks
		case *ast.CallExpr:
			held = s.scanCall(held, n)
		}
		return true
	})
	return held
}

func (s *scanner) scanExprs(held []string, exprs ...ast.Expr) []string {
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				held = s.scanCall(held, call)
			}
			return true
		})
	}
	return held
}

func (s *scanner) scanCall(held []string, call *ast.CallExpr) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return held
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if s.isMutexMethod(sel) {
			return append(held, exprText(sel.X))
		}
	case "Unlock", "RUnlock":
		if s.isMutexMethod(sel) {
			key := exprText(sel.X)
			for i, h := range held {
				if h == key {
					return append(held[:i:i], held[i+1:]...)
				}
			}
		}
	case "Deliver":
		if len(held) > 0 {
			s.pass.Reportf(call.Pos(),
				"Deliver called while holding %s: snapshot under the lock, unlock, then deliver", held[0])
		}
	}
	return held
}

// isMutexMethod reports whether the selector resolves to a method of
// sync.Mutex or sync.RWMutex (including promoted/embedded ones).
func (s *scanner) isMutexMethod(sel *ast.SelectorExpr) bool {
	fn, ok := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	name := types.TypeString(t, nil)
	return name == "sync.Mutex" || name == "sync.RWMutex"
}

func exprText(e ast.Expr) string {
	var b strings.Builder
	write(&b, e)
	return b.String()
}

func write(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		write(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.IndexExpr:
		write(b, x.X)
		b.WriteByte('[')
		write(b, x.Index)
		b.WriteByte(']')
	case *ast.ParenExpr:
		write(b, x.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		write(b, x.X)
	default:
		b.WriteString("?")
	}
}
