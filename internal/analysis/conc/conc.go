// Package conc models the module's concurrency protocol — the layer
// the goroutine-lifetime (goleak), channel-ownership (chanown) and
// WaitGroup-balance (wgsync) analyzers share. It is built over the
// same three substrates as the rest of the suite: the cfg package for
// path questions, the value-flow layer (vflow) for canonicalizing the
// variables that name channels and WaitGroups, and the call graph
// (callgraph) for resolving a spawn or a call to its declared callee.
// Every callee the layer names is the target of one of callgraph's
// static edges; interface calls and calls through function values
// resolve to nothing.
//
// For every declared function (one per call-graph node) the layer
// records:
//
//   - Spawn sites: each go statement, with the spawned function
//     literal or the statically-resolved module callee. Spawns
//     through function-typed values resolve to nothing and consumers
//     treat them as open (the same soundness stance callgraph takes
//     for unknown call sites).
//   - WaitGroup counter ops: every Add/Done/Wait on a sync.WaitGroup
//     receiver, keyed by the canonical variable or field naming the
//     group, annotated with whether the op is deferred and whether it
//     runs inside a spawned goroutine.
//   - Channel ops: every make/send/close/receive, keyed the same way,
//     so ownership ("who sends, who closes") is a module-wide question
//     answered by index lookup.
//
// Keys canonicalize through vflow single-definition chains — `q := ch`
// names the same channel as ch — and fields key on their declaring
// type, so `s.queue` in one method and `srv.queue` in another meet.
//
// The layer also answers the termination question goleak is built on:
// CanReturn reports whether a function has any control-flow path to a
// return (a reachable cfg block with no successors). The analysis is
// interprocedural by truncation: a path through a call to a function
// that itself can never return ends there, and the module-wide
// fixpoint iterates until the can-return sets stabilize. A function
// that panics or os.Exits terminates for this purpose — goleak cares
// about goroutines that block or spin forever, not about how they die.
//
// Like callgraph and vflow, the module build is memoized under
// ModulePass.Cache so the three analyzers of one lint invocation share
// a single pass over the sources.
package conc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
	"hetpnoc/internal/analysis/cfg"
	"hetpnoc/internal/analysis/vflow"
)

// WGOpKind classifies a WaitGroup counter operation.
type WGOpKind uint8

const (
	// WGAdd is wg.Add(n).
	WGAdd WGOpKind = iota
	// WGDone is wg.Done().
	WGDone
	// WGWait is wg.Wait().
	WGWait
)

// WGOp is one WaitGroup counter operation in a function body.
type WGOp struct {
	Kind WGOpKind

	// Key is the canonical name of the WaitGroup (see Key).
	Key string

	// Expr is the receiver as written, for diagnostics.
	Expr string

	// Call is the operation's call expression.
	Call *ast.CallExpr

	// Deferred reports the op runs from a defer (directly or inside a
	// deferred function literal).
	Deferred bool

	// InSpawn is the go statement whose spawned literal lexically
	// contains the op, nil when the op runs on the spawning side.
	InSpawn *ast.GoStmt
}

// ChanOpKind classifies a channel operation.
type ChanOpKind uint8

const (
	// ChanMake is a make(chan ...) paired with the variable or field it
	// initializes.
	ChanMake ChanOpKind = iota
	// ChanSend is ch <- v.
	ChanSend
	// ChanClose is close(ch).
	ChanClose
	// ChanRecv is <-ch or a range over ch.
	ChanRecv
)

// ChanOp is one channel operation in a function body.
type ChanOp struct {
	Kind ChanOpKind

	// Key is the canonical name of the channel (see Key).
	Key string

	// Expr is the channel expression as written, for diagnostics.
	Expr string

	// Node is the operation site: the make call, send statement, close
	// call or receive expression.
	Node ast.Node

	// Var is the local variable naming the channel when the operation
	// keys on one, nil for fields and compound expressions.
	Var *types.Var

	// InSpawn mirrors WGOp.InSpawn.
	InSpawn *ast.GoStmt
}

// Spawn is one go statement.
type Spawn struct {
	// Stmt is the go statement.
	Stmt *ast.GoStmt

	// Fn is the declared function whose body lexically contains the
	// spawn (spawns inside nested literals attribute here too, the
	// callgraph convention).
	Fn *FuncInfo

	// Lit is the spawned function literal, nil when the target is a
	// declared function or unresolved.
	Lit *ast.FuncLit

	// Callee is the spawned module function, resolved through the call
	// graph's static edge at the go statement. It is nil for literals,
	// out-of-module callees and spawns through function-typed values.
	Callee *FuncInfo
}

// FuncInfo is the concurrency summary of one declared function: its
// call-graph node (object, declaration, unit, rendered name) plus the
// concurrency facts of its body.
type FuncInfo struct {
	*callgraph.Node

	// Spawns, WGOps and ChanOps are in source order and cover the whole
	// body, function literals included.
	Spawns  []*Spawn
	WGOps   []*WGOp
	ChanOps []*ChanOp

	params map[*types.Var]bool

	// canReturn is maintained by the module fixpoint; intrinsicReturn
	// ignores callees (false means the body itself loops forever).
	canReturn       bool
	intrinsicReturn bool
}

// CanReturn reports whether any path through the function reaches a
// return (or a terminating panic/os.Exit), calls to module functions
// that never return included.
func (fi *FuncInfo) CanReturn() bool { return fi.canReturn }

// IntrinsicReturn is CanReturn with every callee assumed to return:
// false means the body's own control flow never reaches an exit.
func (fi *FuncInfo) IntrinsicReturn() bool { return fi.intrinsicReturn }

// IsParam reports whether v is one of the function's parameters.
func (fi *FuncInfo) IsParam(v *types.Var) bool { return fi.params[v] }

// Owner identifies who a site acts for: the receiver's named type for
// methods ("type <pkg>.<T>"), the function itself otherwise
// ("func <pkg>.<name>"). chanown compares send and close owners.
func (fi *FuncInfo) Owner() string {
	if sig, ok := fi.Func.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := baseNamed(sig.Recv().Type()); named != nil {
			return "type " + named.Obj().Pkg().Name() + "." + named.Obj().Name()
		}
	}
	pkg := ""
	if fi.Func.Pkg() != nil {
		pkg = fi.Func.Pkg().Name() + "."
	}
	return "func " + pkg + fi.Func.Name()
}

// WGSite and ChanSite pair a module-wide indexed op with its function.
type WGSite struct {
	Fn *FuncInfo
	Op *WGOp
}

// ChanSite pairs an indexed channel op with its function.
type ChanSite struct {
	Fn *FuncInfo
	Op *ChanOp
}

// WGIndex is every counter op of one WaitGroup key across the module.
type WGIndex struct {
	Adds, Dones, Waits []WGSite
}

// ChanIndex is every op of one channel key across the module.
type ChanIndex struct {
	Makes, Sends, Closes, Recvs []ChanSite
}

// Module is the whole-program concurrency summary.
type Module struct {
	vf *vflow.Module

	// static maps each call expression to the module function the call
	// graph's static edge at that site names.
	static map[*ast.CallExpr]*FuncInfo

	// Sorted holds every summarized function in deterministic build
	// order (unit, file, source); traversals that must be reproducible
	// iterate it.
	Sorted []*FuncInfo

	wg        map[string]*WGIndex
	chans     map[string]*ChanIndex
	wgKeys    []string
	chKeys    []string
	escapedWG map[string]bool
	litRets   map[*ast.FuncLit]bool
}

// WGEscaped reports whether the WaitGroup key was address-taken
// anywhere in the module (&wg handed to another function): its counter
// ops may happen under keys the layer cannot match, so balance checks
// must stay quiet about it.
func (m *Module) WGEscaped(key string) bool { return m.escapedWG[key] }

// FromPass returns the module's concurrency summary, memoized in
// mp.Cache so goleak, chanown and wgsync share one build.
func FromPass(mp *analysis.ModulePass) *Module {
	const key = "conc"
	if m, ok := mp.Cache[key].(*Module); ok {
		return m
	}
	m := Build(callgraph.FromPass(mp), vflow.FromPass(mp))
	if mp.Cache != nil {
		mp.Cache[key] = m
	}
	return m
}

// Build summarizes every node of the call graph g and runs the
// can-return fixpoint.
func Build(g *callgraph.Graph, vf *vflow.Module) *Module {
	m := &Module{
		vf:        vf,
		static:    make(map[*ast.CallExpr]*FuncInfo),
		wg:        make(map[string]*WGIndex),
		chans:     make(map[string]*ChanIndex),
		escapedWG: make(map[string]bool),
		litRets:   make(map[*ast.FuncLit]bool),
	}
	fns := make(map[*callgraph.Node]*FuncInfo, len(g.Sorted))
	for _, n := range g.Sorted {
		fi := &FuncInfo{Node: n, params: make(map[*types.Var]bool)}
		fns[n] = fi
		m.Sorted = append(m.Sorted, fi)
	}
	for _, n := range g.Sorted {
		for _, e := range n.Out {
			if call, ok := e.Site.(*ast.CallExpr); ok && e.Kind == callgraph.KindStatic {
				m.static[call] = fns[e.Callee]
			}
		}
	}
	for _, fi := range m.Sorted {
		m.collect(fi)
	}
	m.index()
	m.computeReturns()
	return m
}

// WG returns the module-wide counter ops of a WaitGroup key (the zero
// index when the key is unknown).
func (m *Module) WG(key string) WGIndex {
	if idx := m.wg[key]; idx != nil {
		return *idx
	}
	return WGIndex{}
}

// Chan returns the module-wide ops of a channel key.
func (m *Module) Chan(key string) ChanIndex {
	if idx := m.chans[key]; idx != nil {
		return *idx
	}
	return ChanIndex{}
}

// WGKeys returns every indexed WaitGroup key in sorted order.
func (m *Module) WGKeys() []string { return m.wgKeys }

// ChanKeys returns every indexed channel key in sorted order.
func (m *Module) ChanKeys() []string { return m.chKeys }

// index builds the module-wide WaitGroup and channel indexes. Sites
// append in Sorted order, so per-key lists are deterministic.
func (m *Module) index() {
	for _, fi := range m.Sorted {
		for _, op := range fi.WGOps {
			idx := m.wg[op.Key]
			if idx == nil {
				idx = &WGIndex{}
				m.wg[op.Key] = idx
				m.wgKeys = append(m.wgKeys, op.Key)
			}
			site := WGSite{Fn: fi, Op: op}
			switch op.Kind {
			case WGAdd:
				idx.Adds = append(idx.Adds, site)
			case WGDone:
				idx.Dones = append(idx.Dones, site)
			case WGWait:
				idx.Waits = append(idx.Waits, site)
			}
		}
		for _, op := range fi.ChanOps {
			idx := m.chans[op.Key]
			if idx == nil {
				idx = &ChanIndex{}
				m.chans[op.Key] = idx
				m.chKeys = append(m.chKeys, op.Key)
			}
			site := ChanSite{Fn: fi, Op: op}
			switch op.Kind {
			case ChanMake:
				idx.Makes = append(idx.Makes, site)
			case ChanSend:
				idx.Sends = append(idx.Sends, site)
			case ChanClose:
				idx.Closes = append(idx.Closes, site)
			case ChanRecv:
				idx.Recvs = append(idx.Recvs, site)
			}
		}
	}
	sort.Strings(m.wgKeys)
	sort.Strings(m.chKeys)
}

// collect fills one function's summary with a single AST walk plus a
// position-range pass attributing ops to spawned literals and defers.
func (m *Module) collect(fi *FuncInfo) {
	fd, u := fi.Decl, fi.Unit
	info := u.TypesInfo
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					fi.params[v] = true
				}
			}
		}
	}

	k := m.NewKeyer(fd.Body, u)

	// Spawned-literal and defer extents, for op attribution.
	type extent struct {
		pos, end token.Pos
		spawn    *ast.GoStmt
	}
	var spawnExts, deferExts []extent

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			sp := &Spawn{Stmt: n, Fn: fi}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				sp.Lit = lit
				spawnExts = append(spawnExts, extent{pos: lit.Body.Pos(), end: lit.Body.End(), spawn: n})
			} else {
				sp.Callee = m.static[n.Call]
			}
			fi.Spawns = append(fi.Spawns, sp)
		case *ast.DeferStmt:
			deferExts = append(deferExts, extent{pos: n.Call.Pos(), end: n.Call.End()})
		case *ast.CallExpr:
			if kind, ok := wgMethod(info, n); ok {
				if sel, selOK := ast.Unparen(n.Fun).(*ast.SelectorExpr); selOK {
					fi.WGOps = append(fi.WGOps, &WGOp{
						Kind: kind,
						Key:  k.Key(sel.X),
						Expr: types.ExprString(sel.X),
						Call: n,
					})
				}
			} else if isBuiltinClose(info, n) && len(n.Args) == 1 {
				fi.ChanOps = append(fi.ChanOps, k.chanOp(ChanClose, n.Args[0], n))
			}
		case *ast.SendStmt:
			fi.ChanOps = append(fi.ChanOps, k.chanOp(ChanSend, n.Chan, n))
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fi.ChanOps = append(fi.ChanOps, k.chanOp(ChanRecv, n.X, n))
			} else if n.Op == token.AND && isWaitGroup(info.TypeOf(n.X)) {
				m.escapedWG[k.Key(n.X)] = true
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) {
				fi.ChanOps = append(fi.ChanOps, k.chanOp(ChanRecv, n.X, n.X))
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if isMakeChan(info, rhs) {
						fi.ChanOps = append(fi.ChanOps, k.chanOp(ChanMake, n.Lhs[i], rhs))
					}
				}
			}
		case *ast.CompositeLit:
			named := baseNamed(info.TypeOf(n))
			if named == nil {
				return true
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok || !isMakeChan(info, kv.Value) {
					continue
				}
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				fi.ChanOps = append(fi.ChanOps, &ChanOp{
					Kind: ChanMake,
					Key:  fieldKey(named, id.Name),
					Expr: named.Obj().Name() + "." + id.Name,
					Node: kv.Value,
				})
			}
		}
		return true
	})

	// Innermost spawned-literal extent containing an op's position.
	inSpawn := func(pos token.Pos) *ast.GoStmt {
		var best *extent
		for i := range spawnExts {
			e := &spawnExts[i]
			if e.pos <= pos && pos < e.end && (best == nil || e.pos > best.pos) {
				best = e
			}
		}
		if best == nil {
			return nil
		}
		return best.spawn
	}
	inDefer := func(pos token.Pos) bool {
		for _, e := range deferExts {
			if e.pos <= pos && pos < e.end {
				return true
			}
		}
		return false
	}
	for _, op := range fi.WGOps {
		op.InSpawn = inSpawn(op.Call.Pos())
		op.Deferred = inDefer(op.Call.Pos())
	}
	for _, op := range fi.ChanOps {
		op.InSpawn = inSpawn(op.Node.Pos())
	}
}

// Keyer canonicalizes the expressions naming channels and WaitGroups
// within one function body. chanown's path-sensitive pass keys its
// facts through one so they line up with the module indexes.
type Keyer struct {
	m    *Module
	info *types.Info
	fi   *vflow.FuncInfo
}

// NewKeyer returns a Keyer over body (a declared function's or a
// function literal's).
func (m *Module) NewKeyer(body *ast.BlockStmt, u *analysis.PackageUnit) *Keyer {
	return &Keyer{m: m, info: u.TypesInfo, fi: m.vf.FuncInfo(body, u.TypesInfo)}
}

// Graph returns body's control-flow graph, shared with the value-flow
// layer's memoized build.
func (m *Module) Graph(body *ast.BlockStmt, u *analysis.PackageUnit) *cfg.Graph {
	return m.vf.FuncInfo(body, u.TypesInfo).Graph
}

func (k *Keyer) chanOp(kind ChanOpKind, ch ast.Expr, site ast.Node) *ChanOp {
	op := &ChanOp{Kind: kind, Key: k.Key(ch), Expr: types.ExprString(ast.Unparen(ch)), Node: site}
	if id, ok := ast.Unparen(ch).(*ast.Ident); ok {
		op.Var = k.fi.Canonical(id)
	}
	return op
}

// Key canonicalizes an expression naming a channel or WaitGroup:
//
//	"l|<pos>"            local variable, through vflow single-def chains
//	"f|<pkg>.<T>.<field>" struct field, keyed on the declaring type
//	"g|<pkg>.<name>"      package-level variable
//	"e|<printed>"         anything else, keyed on its printed form
func (k *Keyer) Key(e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v := k.fi.Canonical(e); v != nil {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return "g|" + v.Pkg().Path() + "." + v.Name()
			}
			return fmt.Sprintf("l|%d", v.Pos())
		}
	case *ast.SelectorExpr:
		if sel, ok := k.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := baseNamed(k.info.TypeOf(e.X)); named != nil {
				return fieldKey(named, e.Sel.Name)
			}
		}
		if v, ok := k.info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "g|" + v.Pkg().Path() + "." + v.Name()
		}
	}
	return "e|" + types.ExprString(e)
}

func fieldKey(named *types.Named, field string) string {
	path := ""
	if named.Obj().Pkg() != nil {
		path = named.Obj().Pkg().Path() + "."
	}
	return "f|" + path + named.Obj().Name() + "." + field
}

// computeReturns runs the module-wide can-return fixpoint: start from
// "everything returns", recompute each function with paths truncated
// at calls to non-returning functions, and iterate until stable. The
// set only ever shrinks, so the loop terminates.
func (m *Module) computeReturns() {
	for _, fi := range m.Sorted {
		fi.intrinsicReturn = m.bodyCanReturn(fi.Decl.Body, fi.Unit, false)
		fi.canReturn = fi.intrinsicReturn
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range m.Sorted {
			if !fi.canReturn {
				continue
			}
			if !m.bodyCanReturn(fi.Decl.Body, fi.Unit, true) {
				fi.canReturn = false
				changed = true
			}
		}
	}
}

// LitCanReturn reports whether the function literal's body has a path
// to an exit, module callees considered. goleak asks this of spawned
// literals.
func (m *Module) LitCanReturn(lit *ast.FuncLit, u *analysis.PackageUnit) bool {
	if r, ok := m.litRets[lit]; ok {
		return r
	}
	r := m.bodyCanReturn(lit.Body, u, true)
	m.litRets[lit] = r
	return r
}

// bodyCanReturn reports whether some path from the body's entry
// reaches a cfg block with no successors — a return, a terminal
// panic/os.Exit, or falling off the end. With useCallees, a path ends
// (non-terminating) at the first lexical call to a module function
// whose own CanReturn is false.
func (m *Module) bodyCanReturn(body *ast.BlockStmt, u *analysis.PackageUnit, useCallees bool) bool {
	g := m.vf.FuncInfo(body, u.TypesInfo).Graph
	if len(g.Blocks) == 0 {
		return true
	}
	seen := make(map[int]bool)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		blk := g.Blocks[queue[0]]
		queue = queue[1:]
		truncated := false
		if useCallees {
			for _, n := range blk.Nodes {
				if m.NonReturningCall(n) != nil {
					truncated = true
					break
				}
			}
		}
		if truncated {
			continue
		}
		if len(blk.Succs) == 0 {
			return true
		}
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				queue = append(queue, s.Index)
			}
		}
	}
	return false
}

// NonReturningCall returns the first module function, in source
// order, that n calls statically (outside nested function literals)
// and that can never return, or nil. go statements don't count — the
// spawned callee blocks its own goroutine, not this path. goleak
// follows these calls to name the function a goroutine blocks in.
func (m *Module) NonReturningCall(n ast.Node) *FuncInfo {
	var found *FuncInfo
	ast.Inspect(n, func(nd ast.Node) bool {
		if found != nil {
			return false
		}
		switch nd := nd.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if fi := m.static[nd]; fi != nil && !fi.canReturn {
				found = fi
				return false
			}
		}
		return true
	})
	return found
}

// wgMethod classifies a call as a sync.WaitGroup counter op. The
// receiver type check keeps atomic counters, testing.F.Add, time.Add
// and the energy ledger's Add out of the vocabulary.
func wgMethod(info *types.Info, call *ast.CallExpr) (WGOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0, false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	if !isWaitGroup(sig.Recv().Type()) {
		return 0, false
	}
	switch obj.Name() {
	case "Add":
		return WGAdd, true
	case "Done":
		return WGDone, true
	case "Wait":
		return WGWait, true
	}
	return 0, false
}

func isWaitGroup(t types.Type) bool {
	named := baseNamed(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

func isBuiltinClose(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

func isMakeChan(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	return isChanType(info.TypeOf(call))
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// IsQuitChan reports whether t is a channel of empty structs — the
// quit/done-channel convention (context.Done() returns one). goleak
// accepts a receive from one as an exit signal.
func IsQuitChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

func baseNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named
}
