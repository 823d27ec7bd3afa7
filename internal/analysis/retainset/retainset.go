// Package retainset flags engine state retaining a caller-owned object
// set without taking a copy — the bug class behind PR 5's
// result-lifetime sweep (the window buffer aliased reused ingest
// storage and corrupted every generator's marks) and the contract PR 6
// made explicit with vr.Frame.Owned.
//
// The rule: a value that may alias a caller-owned object set — a
// non-receiver parameter, a frame's .Objects field reached from a
// parameter, or anything data flow derives from either — must not be
// stored into state rooted at the method receiver or a package-level
// variable. A store is fine when the value was laundered through
// Clone/Compact/Intern (owned storage by contract), when the frame's
// .Objects was first overwritten with an owned call result, or when
// the store sits inside an if whose condition consults a frame's Owned
// field (the explicit ownership-transfer contract).
//
// The analysis is a forward may-alias dataflow over the package's
// control-flow graphs (analysis.NewCFG / analysis.Forward): every
// value carries a bitmask of the function inputs it may alias, and the
// fixed point decides what reaches each store. Function summaries —
// which inputs a function retains, and which inputs its results alias
// — are computed to a fixed point within the package and exported as
// facts (SummaryFact), so retention through a helper in another
// package is flagged at the call site that introduced the borrow.
// Calls to functions with no summary are assumed to return owned
// storage and retain nothing: the module's own helpers all have
// summaries by the time their callers are analyzed (dependency-order
// runs), and the stdlib does not retain object sets.
//
// //lint:ignore retainset <reason> suppresses a deliberate retention.
package retainset

import (
	"go/ast"
	"go/token"
	"go/types"

	"tvq/internal/analysis"
)

const (
	setType     = "tvq/internal/objset.Set"
	frameType   = "tvq/internal/vr.Frame"
	idSliceType = "[]tvq/internal/objset.ID"
)

// Input slots: slot 0 is the method receiver, slot i+1 the i-th
// parameter. A value's mask is the set of input slots it may alias;
// the zero mask means freshly-owned storage.
const (
	recvBit = uint64(1)
	// stateBit marks "this function's own receiver or package state" as
	// a retention destination in SummaryFact.RetainedIn.
	stateBit = uint64(1) << 63
	maxSlots = 62
)

// paramBits masks the slots whose aliasing constitutes a borrow: every
// input except the receiver (a method storing its own receiver into
// its own state is not a retention bug).
const paramBits = ^(recvBit | stateBit)

// SummaryFact is the exported interprocedural summary of one function:
// which input slots it retains, and where, plus which input slots its
// results may alias. Both use the slot numbering above.
type SummaryFact struct {
	// RetainedIn[i] is the set of destinations input slot i escapes
	// into: other input slots (the value is stored into storage rooted
	// at that argument) and/or stateBit (stored into the function's own
	// receiver or package state).
	RetainedIn []uint64
	// ResultAliases[j] is the set of input slots result j may alias.
	ResultAliases []uint64
}

// AFact marks SummaryFact as an analysis fact.
func (*SummaryFact) AFact() {}

func (f *SummaryFact) trivial() bool {
	if f == nil {
		return true
	}
	for _, m := range f.RetainedIn {
		if m != 0 {
			return false
		}
	}
	for _, m := range f.ResultAliases {
		if m != 0 {
			return false
		}
	}
	return true
}

func (f *SummaryFact) equal(g *SummaryFact) bool {
	if f == nil || g == nil {
		return f.trivial() && g.trivial()
	}
	if len(f.RetainedIn) != len(g.RetainedIn) || len(f.ResultAliases) != len(g.ResultAliases) {
		return false
	}
	for i := range f.RetainedIn {
		if f.RetainedIn[i] != g.RetainedIn[i] {
			return false
		}
	}
	for i := range f.ResultAliases {
		if f.ResultAliases[i] != g.ResultAliases[i] {
			return false
		}
	}
	return true
}

func (f *SummaryFact) retained(slot int) uint64 {
	if f == nil || slot >= len(f.RetainedIn) {
		return 0
	}
	return f.RetainedIn[slot]
}

func (f *SummaryFact) result(j int) uint64 {
	if f == nil || j >= len(f.ResultAliases) {
		return 0
	}
	return f.ResultAliases[j]
}

// intrinsicFresh lists functions whose results are owned by contract
// even though their bodies may return an argument unchanged (Compact
// returns s itself when densifying is not worthwhile; Intern stores a
// clone and hands back the canonical copy). These encode the project's
// documented ownership transfers; without the override their computed
// summaries would poison every laundering site. AppendTo copies the
// members into the caller's own slice; its summary would tie that slice
// to the set it was filled from.
var intrinsicFresh = map[string]bool{
	"(tvq/internal/objset.Set).AppendTo":     true,
	"tvq/internal/objset.Compact":            true,
	"tvq/internal/objset.FromSorted":         true,
	"(tvq/internal/objset.Set).Clone":        true,
	"(*tvq/internal/objset.Interner).Intern": true,
	"(tvq/internal/objset.Set).Intersect":    true,
	"(tvq/internal/objset.Set).Union":        true,
}

// Analyzer flags borrowed object sets stored into engine state.
var Analyzer = &analysis.Analyzer{
	Name: "retainset",
	Doc:  "flags caller-owned object sets retained by engine state without Clone/Compact or an Owned check",
	Run:  run,
}

// checker carries one package's run: the in-progress local summaries
// plus the pass for fact import/export.
type checker struct {
	pass  *analysis.Pass
	local map[*types.Func]*SummaryFact
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, local: make(map[*types.Func]*SummaryFact)}

	type decl struct {
		fn  *ast.FuncDecl
		obj *types.Func
	}
	var decls []decl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls = append(decls, decl{fn, obj})
		}
	}

	// Summaries start optimistic (everything fresh) and grow to a fixed
	// point, so mutually recursive helpers inside the package converge.
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, d := range decls {
			s := c.analyzeFunc(d.fn, false)
			if !s.equal(c.local[d.obj]) {
				c.local[d.obj] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for obj, s := range c.local {
		if !s.trivial() {
			pass.ExportObjectFact(obj, s)
		}
	}
	// Diagnostics run once, against the converged summaries.
	for _, d := range decls {
		c.analyzeFunc(d.fn, true)
	}
	return nil
}

// summaryFor resolves a callee's summary: the contract overrides,
// then this package's converged summaries, then facts exported by the
// analyzer on an already-analyzed package. nil means "no summary" —
// treated as fresh/non-retaining.
func (c *checker) summaryFor(fn *types.Func) *SummaryFact {
	if fn == nil {
		return nil
	}
	if intrinsicFresh[fn.FullName()] {
		return nil
	}
	if s, ok := c.local[fn]; ok {
		return s
	}
	var s SummaryFact
	if c.pass.ImportObjectFact(fn, &s) {
		return &s
	}
	return nil
}

// scope is the per-function analysis context.
type scope struct {
	c    *checker
	info *types.Info
	recv types.Object
	// slot[obj] is the input slot of a receiver/parameter object.
	slot map[types.Object]int
	// nInputs is 1 (receiver slot) + number of parameters.
	nInputs int
	// guards are the source ranges of if statements whose condition
	// consults a frame's Owned field; stores inside are the sanctioned
	// ownership transfer.
	guards []posRange
	// emit toggles diagnostics; record toggles summary recording. Both
	// stay off during the Forward fixed point (whose transfers rerun
	// until convergence) and on during the single replay pass.
	emit   bool
	record bool
	sum    *SummaryFact
}

type posRange struct{ lo, hi token.Pos }

func (sc *scope) guarded(p token.Pos) bool {
	for _, r := range sc.guards {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// state maps each variable to the input slots its value may alias.
// Absent means freshly-owned. nil map means unreached (bottom).
type state map[types.Object]uint64

func cloneState(s state) state {
	if s == nil {
		return nil
	}
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinState(into, from state) (state, bool) {
	if from == nil {
		return into, false
	}
	if into == nil {
		return cloneState(from), true
	}
	changed := false
	for k, v := range from {
		if into[k]|v != into[k] {
			into[k] |= v
			changed = true
		}
	}
	return into, changed
}

func (c *checker) analyzeFunc(fn *ast.FuncDecl, emit bool) *SummaryFact {
	sc := &scope{
		c:    c,
		info: c.pass.TypesInfo,
		slot: make(map[types.Object]int),
		sum:  &SummaryFact{},
	}
	entry := make(state)
	slot := 0
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		if obj := sc.info.Defs[fn.Recv.List[0].Names[0]]; obj != nil {
			sc.recv = obj
			sc.slot[obj] = 0
			entry[obj] = recvBit
		}
	}
	slot = 1
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := sc.info.Defs[name]; obj != nil && slot <= maxSlots {
				sc.slot[obj] = slot
				// Only borrowable types seed a mask: set-carrying values
				// (Set, Frame, and by-value composites of them) have the
				// hidden-shared-backing problem. Pointer-typed parameters
				// (*State, *ssgNode) are shared graph nodes by design, and
				// scalars cannot alias set storage at all.
				if borrowable(obj.Type(), 0) {
					entry[obj] = uint64(1) << slot
				}
			}
			slot++
		}
	}
	sc.nInputs = slot
	sc.sum.RetainedIn = make([]uint64, sc.nInputs)
	nres := 0
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			if n := len(f.Names); n > 0 {
				nres += n
			} else {
				nres++
			}
		}
	}
	sc.sum.ResultAliases = make([]uint64, nres)

	// Owned-guard ranges: both arms of the if count — the idiom is
	// "if f.Owned { take } else { clone }", and the else arm holds the
	// explicitly-owned copy path.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && mentionsOwned(ifs.Cond) {
			sc.guards = append(sc.guards, posRange{ifs.Body.Pos(), ifs.End()})
		}
		return true
	})

	cfg := analysis.NewCFG(fn.Body)
	transfer := func(b *analysis.Block, s state) state {
		if s == nil {
			return nil
		}
		for _, n := range b.Nodes {
			sc.node(n, s)
		}
		return s
	}
	ins := analysis.Forward(cfg, entry, cloneState, transfer, joinState)
	// Replay each reachable block once from its fixed-point in-state
	// with summary recording (and, on the final pass, diagnostics) on.
	sc.emit = emit
	sc.record = true
	for _, b := range cfg.Blocks {
		if in := ins[b.Index]; in != nil {
			s := cloneState(in)
			for _, n := range b.Nodes {
				sc.node(n, s)
			}
		}
	}
	return sc.sum
}

// node pushes one CFG node through the state.
func (sc *scope) node(n ast.Node, s state) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		sc.assign(n, s)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var m uint64
					if i < len(vs.Values) {
						m = sc.exprMask(s, vs.Values[i])
					}
					if obj := sc.info.Defs[name]; obj != nil {
						sc.setMask(s, obj, m)
					}
				}
			}
		}
	case *ast.RangeStmt:
		m := sc.exprMask(s, n.X)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := sc.info.Defs[id]
			if obj == nil {
				obj = sc.info.Uses[id]
			}
			if obj != nil {
				sc.setMask(s, obj, m)
			}
		}
	case *ast.ReturnStmt:
		for i, e := range n.Results {
			m := sc.exprMask(s, e)
			if sc.recording() && !sc.guarded(n.Pos()) && i < len(sc.sum.ResultAliases) {
				sc.sum.ResultAliases[i] |= m & ^stateBit
			}
		}
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			if sc.emit && !sc.guarded(n.Pos()) {
				sc.checkCapture(lit, s)
			}
		} else {
			sc.exprMask(s, n.Call)
		}
		for _, a := range n.Call.Args {
			sc.exprMask(s, a)
		}
	case *ast.DeferStmt:
		sc.exprMask(s, n.Call)
	case *ast.ExprStmt:
		sc.exprMask(s, n.X)
	case *ast.SendStmt:
		sc.exprMask(s, n.Chan)
		sc.exprMask(s, n.Value)
	case *ast.IncDecStmt, *ast.EmptyStmt:
	case ast.Expr:
		// Branch conditions, range subjects, switch tags: evaluate for
		// call side effects.
		sc.exprMask(s, n)
		// Consulting a frame's Owned field resolves its ownership on
		// every path out of the branch: the contract idiom
		// `if !f.Owned { f.Objects = f.Objects.Clone() }` leaves the
		// frame safe to retain after the join, so the checked variable
		// is laundered from the condition onward.
		sc.ownedCheckLaunders(n, s)
	}
}

// ownedCheckLaunders clears the mask of every variable whose Owned
// field the condition consults.
func (sc *scope) ownedCheckLaunders(cond ast.Expr, s state) {
	ast.Inspect(cond, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Owned" {
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if obj := sc.info.Uses[root]; obj != nil {
				sc.setMask(s, obj, 0)
			}
		}
		return false
	})
}

func (sc *scope) recording() bool { return sc.record }

// assign handles every assignment shape: pairwise, tuple-from-call,
// and stores through selectors/indexes.
func (sc *scope) assign(n *ast.AssignStmt, s state) {
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		// x, y := f(...) — per-result masks from the callee summary.
		var masks []uint64
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			masks = sc.callResultMasks(s, call)
		}
		for i, lhs := range n.Lhs {
			var m uint64
			if i < len(masks) {
				m = masks[i]
			}
			sc.store(lhs, m, n.Rhs[0], s)
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		rhs := n.Rhs[i]
		sc.store(lhs, sc.exprMask(s, rhs), rhs, s)
	}
}

// store records "a value with mask m is written through lhs".
func (sc *scope) store(lhs ast.Expr, m uint64, rhs ast.Expr, s state) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := sc.info.Defs[id]
		if obj == nil {
			obj = sc.info.Uses[id]
		}
		if obj == nil {
			return
		}
		if sc.isStateObj(obj) {
			sc.reportStore(rhs, m)
			return
		}
		// Strong update: the variable now holds exactly this value.
		sc.setMask(s, obj, m)
		return
	}

	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := sc.info.Uses[root]
	if obj == nil {
		obj = sc.info.Defs[root]
	}
	if obj == nil {
		return
	}
	if obj == sc.recv || isGlobal(obj) {
		sc.reportStore(rhs, m)
		return
	}
	// The laundering idiom — f.Objects = <owned call result> — clears
	// the frame variable, parameter or local: its only set-carrying
	// field now holds owned storage.
	if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Objects" && m == 0 {
		if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok && (sc.info.Uses[base] == obj || sc.info.Defs[base] == obj) {
			sc.setMask(s, obj, 0)
			return
		}
	}
	if sc.paramSlot(obj) > 0 {
		// Stored into storage rooted at a parameter: the caller sees it.
		if sc.recording() && !sc.guarded(lhs.Pos()) && m&paramBits != 0 && sc.typeCarriesSet(rhs) {
			dst := uint64(1) << sc.paramSlot(obj)
			for i := 0; i < sc.nInputs; i++ {
				if m&(uint64(1)<<i) != 0 {
					sc.sum.RetainedIn[i] |= dst
				}
			}
		}
		s[obj] |= m
		return
	}
	// A local composite absorbs the borrow.
	if m != 0 {
		s[obj] |= m
	}
}

// reportStore emits the state-store diagnostic and records the
// stateBit escape in the summary.
func (sc *scope) reportStore(rhs ast.Expr, m uint64) {
	if m&paramBits == 0 || sc.guarded(rhs.Pos()) {
		return
	}
	if !sc.typeCarriesSet(rhs) {
		return
	}
	if sc.recording() {
		for i := 0; i < sc.nInputs; i++ {
			if m&(uint64(1)<<i) != 0 {
				sc.sum.RetainedIn[i] |= stateBit
			}
		}
	}
	if !sc.emit {
		return
	}
	// append(state.field, borrowed) reports per borrowed argument with
	// its own message; don't double-report the enclosing store.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			return
		}
	}
	sc.c.pass.Reportf(rhs.Pos(),
		"borrowed object set stored into engine state without Clone/Compact or a Frame.Owned check")
}

func (sc *scope) setMask(s state, obj types.Object, m uint64) {
	if m == 0 {
		delete(s, obj)
		return
	}
	s[obj] = m
}

func (sc *scope) paramSlot(obj types.Object) int {
	if sl, ok := sc.slot[obj]; ok && sl > 0 {
		return sl
	}
	return 0
}

func (sc *scope) isStateObj(obj types.Object) bool {
	return obj == sc.recv || isGlobal(obj)
}

// exprMask computes the input-slot alias mask of e under state s,
// applying call side effects (summary-driven arg-to-arg flows) and
// call-site diagnostics along the way. A value whose type cannot carry
// set storage cannot alias it, whatever its container's mask says — so
// f.FID inherits nothing from a borrowed frame f.
func (sc *scope) exprMask(s state, e ast.Expr) uint64 {
	m := sc.exprMaskRaw(s, e)
	if m == 0 {
		return 0
	}
	if tv, ok := sc.info.Types[e]; ok && tv.Type != nil && !carriesSet(tv.Type, 0) {
		return 0
	}
	return m
}

func (sc *scope) exprMaskRaw(s state, e ast.Expr) uint64 {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		obj := sc.info.Uses[e]
		if obj == nil {
			obj = sc.info.Defs[e]
		}
		if obj == nil {
			return 0
		}
		return s[obj]
	case *ast.ParenExpr:
		return sc.exprMask(s, e.X)
	case *ast.SelectorExpr:
		// Qualified identifier (pkg.Var) has no mask; field access
		// inherits the operand's.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := sc.info.Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		return sc.exprMask(s, e.X)
	case *ast.IndexExpr:
		return sc.exprMask(s, e.X)
	case *ast.IndexListExpr:
		return sc.exprMask(s, e.X)
	case *ast.SliceExpr:
		return sc.exprMask(s, e.X)
	case *ast.StarExpr:
		return sc.exprMask(s, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return sc.exprMask(s, e.X)
		}
		sc.exprMask(s, e.X)
		return 0
	case *ast.BinaryExpr:
		// Evaluate both sides for call side effects; scalar results do
		// not alias set storage.
		sc.exprMask(s, e.X)
		sc.exprMask(s, e.Y)
		return 0
	case *ast.TypeAssertExpr:
		return sc.exprMask(s, e.X)
	case *ast.KeyValueExpr:
		return sc.exprMask(s, e.Value)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range e.Elts {
			m |= sc.exprMask(s, el)
		}
		return m
	case *ast.FuncLit:
		return sc.funcLit(e, s)
	case *ast.CallExpr:
		masks := sc.callResultMasks(s, e)
		var m uint64
		for _, rm := range masks {
			m |= rm
		}
		return m
	}
	return 0
}

// funcLit returns the union of the masks the literal captures, and —
// in the replay pass — analyzes the body against the current state so
// stores into enclosing state from inside the closure are flagged.
func (sc *scope) funcLit(lit *ast.FuncLit, s state) uint64 {
	var m uint64
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := sc.info.Uses[id]; obj != nil {
				m |= s[obj]
			}
		}
		return true
	})
	if sc.emit {
		body := cloneState(s)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				sc.assign(n, body)
				return false
			case *ast.FuncLit:
				return false
			}
			return true
		})
	}
	return m & ^stateBit
}

// callResultMasks resolves the callee, applies its summary — arg-to-arg
// retention flows, call-site diagnostics for retention into
// caller-visible state — and returns the per-result alias masks.
func (sc *scope) callResultMasks(s state, call *ast.CallExpr) []uint64 {
	fun := ast.Unparen(call.Fun)

	// Builtins and conversions.
	if id, ok := fun.(*ast.Ident); ok {
		switch id.Name {
		case "append":
			return []uint64{sc.appendCall(s, call)}
		case "copy":
			sc.copyCall(s, call)
			return nil
		case "make", "new", "len", "cap", "delete", "close", "panic", "print", "println", "clear", "min", "max", "recover":
			if sc.info.Uses[id] == nil || sc.info.Uses[id].Parent() == types.Universe {
				for _, a := range call.Args {
					sc.exprMask(s, a)
				}
				return nil
			}
		}
	}
	if tv, ok := sc.info.Types[fun]; ok && tv.IsType() {
		// Conversion: same storage, same mask.
		if len(call.Args) == 1 {
			return []uint64{sc.exprMask(s, call.Args[0])}
		}
		return nil
	}

	callee := sc.calleeFunc(call)
	sum := sc.c.summaryFor(callee)

	// Input-slot expressions at this call site: slot 0 the receiver,
	// then the arguments (variadic extras share the last slot).
	nslots := 1 + len(call.Args)
	slotExpr := make([]ast.Expr, nslots)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if sc.info.Selections[sel] != nil {
			slotExpr[0] = sel.X
		}
	}
	for i, a := range call.Args {
		slotExpr[i+1] = a
	}
	masks := make([]uint64, nslots)
	for i, e := range slotExpr {
		if e != nil {
			masks[i] = sc.exprMask(s, e)
		}
	}

	// Apply the callee's retention flows.
	for i := 0; i < nslots; i++ {
		dests := sum.retained(i)
		if dests == 0 || masks[i]&paramBits == 0 {
			continue
		}
		if slotExpr[i] == nil || sc.guarded(call.Pos()) || !sc.typeCarriesSet(slotExpr[i]) {
			continue
		}
		// stateBit: the callee stores the argument into its own
		// receiver/package state — reported once, at the callee's
		// definition. Argument-slot destinations are this caller's
		// responsibility.
		for j := 0; j < nslots && j <= maxSlots; j++ {
			if dests&(uint64(1)<<j) == 0 || slotExpr[j] == nil {
				continue
			}
			droot := rootIdent(slotExpr[j])
			if droot == nil {
				continue
			}
			dobj := sc.info.Uses[droot]
			if dobj == nil {
				continue
			}
			switch {
			case sc.isStateObj(dobj):
				if sc.recording() {
					for b := 0; b < sc.nInputs; b++ {
						if masks[i]&(uint64(1)<<b) != 0 {
							sc.sum.RetainedIn[b] |= stateBit
						}
					}
				}
				if sc.emit && callee != nil {
					sc.c.pass.Reportf(slotExpr[i].Pos(),
						"borrowed object set passed to %s, which retains it in engine state without Clone/Compact or a Frame.Owned check", callee.Name())
				}
			case sc.paramSlot(dobj) > 0:
				if sc.recording() {
					dst := uint64(1) << sc.paramSlot(dobj)
					for b := 0; b < sc.nInputs; b++ {
						if masks[i]&(uint64(1)<<b) != 0 {
							sc.sum.RetainedIn[b] |= dst
						}
					}
				}
				s[dobj] |= masks[i]
			default:
				// Retained into a local: the local now carries the borrow.
				s[dobj] |= masks[i]
			}
		}
	}

	// Result masks from the callee's alias summary.
	nres := sc.resultCount(call)
	out := make([]uint64, nres)
	for j := 0; j < nres; j++ {
		ra := sum.result(j)
		for i := 0; i < nslots && i <= maxSlots; i++ {
			if ra&(uint64(1)<<i) != 0 {
				out[j] |= masks[i]
			}
		}
	}
	return out
}

// appendCall handles append(dst, xs...): the result aliases every
// operand, and appending a borrowed set to state-rooted storage is a
// retention.
func (sc *scope) appendCall(s state, call *ast.CallExpr) uint64 {
	if len(call.Args) == 0 {
		return 0
	}
	m := sc.exprMask(s, call.Args[0])
	dstState := sc.stateRooted(call.Args[0])
	for _, arg := range call.Args[1:] {
		am := sc.exprMask(s, arg)
		m |= am
		if dstState && am&paramBits != 0 && !sc.guarded(arg.Pos()) && sc.typeCarriesSet(arg) {
			if sc.recording() {
				for b := 0; b < sc.nInputs; b++ {
					if am&(uint64(1)<<b) != 0 {
						sc.sum.RetainedIn[b] |= stateBit
					}
				}
			}
			if sc.emit {
				sc.c.pass.Reportf(arg.Pos(),
					"borrowed object set appended to engine state without Clone/Compact or a Frame.Owned check")
			}
		}
	}
	return m
}

// copyCall flags copy(state.dst, borrowed): element-wise copies of
// set-carrying slices alias the same backing storage.
func (sc *scope) copyCall(s state, call *ast.CallExpr) {
	if len(call.Args) != 2 {
		return
	}
	sm := sc.exprMask(s, call.Args[1])
	sc.exprMask(s, call.Args[0])
	if sc.stateRooted(call.Args[0]) && sm&paramBits != 0 && !sc.guarded(call.Pos()) && sc.typeCarriesSet(call.Args[1]) {
		if sc.recording() {
			for b := 0; b < sc.nInputs; b++ {
				if sm&(uint64(1)<<b) != 0 {
					sc.sum.RetainedIn[b] |= stateBit
				}
			}
		}
		if sc.emit {
			sc.c.pass.Reportf(call.Args[1].Pos(),
				"borrowed object set copied into engine state without Clone/Compact or a Frame.Owned check")
		}
	}
}

func (sc *scope) stateRooted(e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := sc.info.Uses[root]
	return obj != nil && sc.isStateObj(obj)
}

// calleeFunc resolves the statically-known callee, or nil for function
// values, interface methods without facts, and builtins.
func (sc *scope) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := sc.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := sc.info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := sc.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (sc *scope) resultCount(call *ast.CallExpr) int {
	tv, ok := sc.info.Types[call]
	if !ok || tv.Type == nil {
		return 0
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		return tup.Len()
	}
	if _, ok := tv.Type.(*types.Named); ok || tv.Type != nil {
		// Single (possibly void) result; void calls have the invalid or
		// empty tuple type handled above.
		if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.Invalid {
			return 0
		}
		return 1
	}
	return 0
}

// checkCapture flags borrowed set values referenced inside a goroutine
// literal: the goroutine outlives the call frame while the producer
// reuses the storage.
func (sc *scope) checkCapture(lit *ast.FuncLit, s state) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := sc.info.Uses[n]
			if obj != nil && s[obj]&paramBits != 0 && typeString(obj.Type()) == setType {
				sc.c.pass.Reportf(n.Pos(),
					"borrowed object set captured by an escaping goroutine without Clone/Compact")
			}
		case *ast.SelectorExpr:
			if sc.exprMask(s, n)&paramBits != 0 && sc.exprType(n) == setType {
				sc.c.pass.Reportf(n.Pos(),
					"borrowed frame set captured by an escaping goroutine without Clone/Compact")
				return false
			}
		}
		return true
	})
}

func (sc *scope) exprType(e ast.Expr) string {
	tv, ok := sc.info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return typeString(tv.Type)
}

// typeCarriesSet reports whether e's type can hold object-set storage
// (a Set, a Frame, or any composite containing one) — the gate that
// keeps scalar dataflow from producing diagnostics.
func (sc *scope) typeCarriesSet(e ast.Expr) bool {
	tv, ok := sc.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return carriesSet(tv.Type, 0)
}

// borrowable reports whether a parameter of type t can carry a borrow:
// an object set or frame by value, or a container/struct of them whose
// elements the caller's storage backs directly. Pointer, channel,
// interface and function types are excluded — values reached through
// them are shared on purpose, not borrowed.
func borrowable(t types.Type, depth int) bool {
	if t == nil || depth > 4 {
		return false
	}
	switch typeString(t) {
	case setType, frameType:
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if borrowable(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Slice:
		return borrowable(u.Elem(), depth+1)
	case *types.Array:
		return borrowable(u.Elem(), depth+1)
	case *types.Map:
		return borrowable(u.Elem(), depth+1) || borrowable(u.Key(), depth+1)
	}
	return false
}

func carriesSet(t types.Type, depth int) bool {
	if t == nil || depth > 4 {
		return false
	}
	switch typeString(t) {
	case setType, frameType:
		return true
	case idSliceType:
		// []objset.ID is the sparse backing array itself: flows through
		// it (Set{ids: borrowed}) alias the same storage.
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesSet(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Slice:
		return carriesSet(u.Elem(), depth+1)
	case *types.Array:
		return carriesSet(u.Elem(), depth+1)
	case *types.Pointer:
		return carriesSet(u.Elem(), depth+1)
	case *types.Map:
		return carriesSet(u.Elem(), depth+1) || carriesSet(u.Key(), depth+1)
	case *types.Chan:
		return carriesSet(u.Elem(), depth+1)
	}
	return false
}

func isGlobal(obj types.Object) bool {
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// rootIdent returns the leftmost identifier of a selector/index/deref
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// mentionsOwned reports whether the condition consults a frame's Owned
// field — the ownership-transfer contract check.
func mentionsOwned(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Owned" {
			found = true
			return false
		}
		return true
	})
	return found
}

func typeString(t types.Type) string {
	return types.TypeString(t, nil)
}
