// Package lockguard checks mutex discipline across the module: the
// fields each lock guards, and the order locks nest in. Both checks
// read one must-held dataflow per function over the
// internal/analysis/cfg graph — "held" means held on *every*
// control-flow path reaching a point, decided by dataflow rather than
// by pattern-matching.
//
// Guarded fields. A field carrying //hetpnoc:guardedby <mu> may only be
// read while <mu> is held (Lock or RLock) and only written under the
// exclusive Lock. The annotation grammar:
//
//	mu    sync.Mutex
//	state int //hetpnoc:guardedby mu            (sibling field)
//	subs  int //hetpnoc:guardedby Server.mu     (another struct's mutex)
//
// A function whose contract is "caller holds the lock" declares it:
//
//	//hetpnoc:locked Server.mu
//	func (s *Server) finishLocked() { ... }
//
// and the named locks are seeded as held at entry. Function literals
// are analyzed separately with *no* held locks: a closure runs at an
// unknown time (go statement, defer, stored callback), so accesses
// inside one must take the lock themselves. The analysis guards the
// field word itself: a method call through a guarded field
// (c.ll.MoveToFront(...)) counts as a read of the field; writes are
// assignments, ++/--, and &-address-taking, each requiring the
// exclusive lock.
//
// Lock order. Deadlocks are the one concurrency bug the race detector
// cannot see: two goroutines acquiring the same two mutexes in
// opposite orders run clean until the interleaving finally bites in a
// soak test. The order is therefore part of the reviewed source:
//
//   - Every pair of struct-field mutexes ("Server.mu", "Cache.mu" — the
//     //hetpnoc:guardedby vocabulary) that shares a call tree must have
//     a declared order:
//
//     //hetpnoc:lockorder Server.mu Cache.mu cache eviction runs under the server lock
//
//     stating the left lock may be held while the right one is
//     acquired, never the reverse. An undeclared pair is an error at
//     the first function whose transitive acquisition set contains
//     both.
//
//   - Acquisition edges are observed interprocedurally: the must-held
//     state gives the locks held at each Lock call and at each call
//     into a function whose transitive set acquires more. Observed
//     edges and declared edges feed one directed graph; any cycle — two
//     code paths that nest the same locks in opposite orders, or a
//     declaration contradicting observed code — is reported with the
//     acquisition chain of every edge on the cycle.
//
// Only qualified "Type.field" keys take part in the order; local and
// package-level mutexes (test scaffolding, one-off tools) are ignored.
// Deferred calls are skipped (they run at return), and function
// literal bodies observe no order edges.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
	"hetpnoc/internal/analysis/cfg"
)

// Analyzer is the lockguard check.
var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "check //hetpnoc:guardedby mutex discipline and a declared, acyclic lock order with must-dataflow\n\n" +
		"Every access to a guarded field must be dominated by Lock (writes)\n" +
		"or Lock/RLock (reads) of the named mutex on all paths; annotate\n" +
		"caller-holds-the-lock helpers //hetpnoc:locked <mu>. Every mutex\n" +
		"pair sharing a call tree needs a //hetpnoc:lockorder declaration;\n" +
		"observed nesting (propagated over the call graph) and declarations\n" +
		"feed one directed graph whose cycles are reported with every\n" +
		"edge's acquisition chain.",
	RunModule: run,
}

// guard describes one annotated field.
type guard struct {
	key   string // normalized lock name, e.g. "Server.mu"
	field string // qualified field name for diagnostics, e.g. "Server.pending"
}

// prov is one piece of evidence for an order edge outer→inner: where
// the nesting was observed or declared.
type prov struct {
	desc string
	pos  token.Pos
}

type checker struct {
	mp     *analysis.ModulePass
	g      *callgraph.Graph
	guards map[*types.Var]guard

	// sees marks the units that can name a guarded field: those whose
	// package, or a package they import, declares one. Only their
	// bodies are checked for accesses.
	sees map[*analysis.PackageUnit]bool

	// trans holds, per function, the qualified lock keys its execution
	// may acquire, directly or through its callees.
	trans map[*callgraph.Node]map[string]bool

	// declared maps [outer, inner] to the declaration site.
	declared map[[2]string]token.Pos

	// edges is the combined order graph: edges[outer][inner] = evidence.
	edges map[string]map[string][]prov
}

func run(mp *analysis.ModulePass) error {
	c := &checker{
		mp:       mp,
		g:        callgraph.FromPass(mp),
		guards:   make(map[*types.Var]guard),
		sees:     make(map[*analysis.PackageUnit]bool),
		declared: make(map[[2]string]token.Pos),
		edges:    make(map[string]map[string][]prov),
	}
	for _, u := range mp.Pkgs {
		for _, file := range u.Files {
			c.collectGuards(u, analysis.ParseDirectives(mp.Fset, file), file)
			c.collectDeclared(file)
		}
	}
	guarded := make(map[*types.Package]bool)
	for v := range c.guards {
		guarded[v.Pkg()] = true
	}
	for _, u := range mp.Pkgs {
		sees := guarded[u.Pkg]
		for _, imp := range u.Pkg.Imports() {
			sees = sees || guarded[imp]
		}
		c.sees[u] = sees
	}
	c.computeTransitive()
	for _, n := range c.g.Sorted {
		sites := make(map[ast.Node][]*callgraph.Edge)
		for _, e := range n.Out {
			if e.Kind != callgraph.KindRef {
				sites[e.Site] = append(sites[e.Site], e)
			}
		}
		c.checkBody(n.Unit, n.Decl.Body, c.entryFacts(n), n, sites)
	}
	c.checkPairs()
	c.checkCycles()
	return nil
}

// collectGuards records every //hetpnoc:guardedby-annotated struct
// field of file.
func (c *checker) collectGuards(u *analysis.PackageUnit, dirs *analysis.Directives, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			dir, ok := dirs.Covering(field, analysis.DirectiveGuardedBy)
			if !ok {
				continue
			}
			if dir.Arg == "" {
				c.mp.Reportf(field.Pos(),
					"//hetpnoc:guardedby needs the mutex name (a sibling field, or Type.field for another struct's mutex)",
					"//hetpnoc:guardedby <mu>")
				continue
			}
			key, err := resolveGuardKey(u.Pkg, ts, st, dir.Arg)
			if err != "" {
				c.mp.Reportf(field.Pos(), err, "//hetpnoc:guardedby <sibling mutex field, or Type.field>")
				continue
			}
			for _, name := range field.Names {
				v, ok := u.TypesInfo.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				c.guards[v] = guard{key: key, field: ts.Name.Name + "." + name.Name}
			}
		}
		return true
	})
}

// resolveGuardKey normalizes a guardedby argument: "mu" names a sibling
// field (or a package-level mutex) and becomes "Type.mu"; "Server.mu"
// is already qualified and taken verbatim. The string return is a
// diagnostic message when resolution fails.
func resolveGuardKey(pkg *types.Package, ts *ast.TypeSpec, st *ast.StructType, arg string) (string, string) {
	if strings.Contains(arg, ".") {
		return arg, ""
	}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.Name == arg {
				return ts.Name.Name + "." + arg, ""
			}
		}
		// Embedded mutex: the field name is the type name.
		if len(f.Names) == 0 && embeddedName(f.Type) == arg {
			return ts.Name.Name + "." + arg, ""
		}
	}
	if obj := pkg.Scope().Lookup(arg); obj != nil {
		if _, ok := obj.(*types.Var); ok {
			return arg, ""
		}
	}
	return "", fmt.Sprintf("//hetpnoc:guardedby %s: no sibling field or package-level mutex of that name in %s", arg, ts.Name.Name)
}

func embeddedName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// collectDeclared gathers the //hetpnoc:lockorder declarations of file
// and validates their grammar.
func (c *checker) collectDeclared(file *ast.File) {
	for _, dir := range analysis.FileDirectives(file) {
		if dir.Name != analysis.DirectiveLockorder {
			continue
		}
		fields := strings.Fields(dir.Arg)
		if len(fields) < 3 {
			c.mp.Reportf(dir.Pos,
				"//hetpnoc:lockorder needs <outer> <inner> <why>",
				"//hetpnoc:lockorder Outer.mu Inner.mu <why this order is required>")
			continue
		}
		outer, inner := fields[0], fields[1]
		if !dotted(outer) || !dotted(inner) || outer == inner {
			c.mp.Reportf(dir.Pos,
				"//hetpnoc:lockorder takes two distinct qualified lock names (Type.field)",
				"//hetpnoc:lockorder Outer.mu Inner.mu <why>")
			continue
		}
		c.declared[[2]string{outer, inner}] = dir.Pos
		c.addEdge(outer, inner, prov{
			desc: fmt.Sprintf("declared at %s", c.at(dir.Pos)),
			pos:  dir.Pos,
		})
	}
}

// computeTransitive fills trans: for each function, the qualified lock
// keys its execution may acquire, directly or through static and
// interface call edges (references excluded: taking a function value
// does not run it).
func (c *checker) computeTransitive() {
	c.trans = make(map[*callgraph.Node]map[string]bool)
	for _, n := range c.g.Sorted {
		own := make(map[string]bool)
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op, ok := lockOp(n.Unit.TypesInfo, call); ok && (op == "Lock" || op == "RLock") && dotted(key) {
				own[key] = true
			}
			return true
		})
		c.trans[n] = own
	}
	// Propagate callee sets caller-ward to fixpoint.
	changed := true
	for changed {
		changed = false
		for _, n := range c.g.Sorted {
			set := c.trans[n]
			for _, e := range n.Out {
				if e.Kind == callgraph.KindRef {
					continue
				}
				for k := range c.trans[e.Callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
}

// entryFacts seeds held locks from n's //hetpnoc:locked directives; a
// bare name qualifies to the receiver type.
func (c *checker) entryFacts(n *callgraph.Node) cfg.FactSet {
	entry := cfg.NewFactSet()
	for _, dir := range analysis.FuncDirectives(n.Decl) {
		if dir.Name != analysis.DirectiveLocked {
			continue
		}
		if dir.Arg == "" {
			c.mp.Reportf(n.Decl.Name.Pos(),
				"//hetpnoc:locked needs the mutex the caller holds",
				"//hetpnoc:locked <mu>")
			continue
		}
		key := dir.Arg
		if !strings.Contains(key, ".") {
			if recv := receiverTypeName(n.Unit.TypesInfo, n.Decl); recv != "" {
				key = recv + "." + key
			}
		}
		entry.Add("w:" + key)
		entry.Add("r:" + key)
	}
	return entry
}

func receiverTypeName(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// checkBody runs the must-held dataflow over one body, then replays
// each reachable block once: recording order edges (when n is the
// declared function the body belongs to) and reporting unguarded
// accesses. Nested function literals are checked afterwards with empty
// entry facts and record no order edges.
func (c *checker) checkBody(u *analysis.PackageUnit, body *ast.BlockStmt, entry cfg.FactSet, n *callgraph.Node, sites map[ast.Node][]*callgraph.Edge) {
	var lits []*ast.FuncLit
	g := cfg.New(body)
	in := g.ForwardMust(entry, func(nd ast.Node, facts cfg.FactSet) {
		c.transfer(u.TypesInfo, nd, facts, nil, nil)
	})
	for _, b := range g.Blocks {
		facts, reachable := in[b]
		if !reachable {
			continue
		}
		facts = facts.Clone()
		for _, nd := range b.Nodes {
			c.transfer(u.TypesInfo, nd, facts, n, sites)
			if c.sees[u] {
				lits = c.checkAccesses(u.TypesInfo, nd, facts, lits)
			}
		}
	}
	for _, lit := range lits {
		c.checkBody(u, lit.Body, cfg.NewFactSet(), nil, nil)
	}
}

// transfer applies one cfg node's Lock/Unlock effects to facts, in AST
// order. With n non-nil it also records the order edges observed on
// the way: holding H at a Lock(K), or at a call whose transitive set
// contains K, yields edge H→K. The dataflow fixpoint passes nil so
// evidence is collected exactly once. Deferred calls are skipped (they
// run at return) and function literal bodies belong to their own
// analysis.
func (c *checker) transfer(info *types.Info, stmt ast.Node, facts cfg.FactSet, n *callgraph.Node, sites map[ast.Node][]*callgraph.Edge) {
	if _, ok := stmt.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(stmt, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if key, op, ok := lockOp(info, nd); ok {
				if n != nil && (op == "Lock" || op == "RLock") && dotted(key) {
					c.observe(n, facts, key, nd.Pos())
				}
				applyLockOp(facts, key, op)
				return true
			}
			if n == nil {
				return true
			}
			seen := make(map[string]bool)
			for _, e := range sites[nd] {
				for _, k := range sortedKeys(c.trans[e.Callee]) {
					if !seen[k] {
						seen[k] = true
						c.observe(n, facts, k, nd.Pos())
					}
				}
			}
		}
		return true
	})
}

// applyLockOp updates the held-lock facts: "w:<key>" while the lock is
// held exclusively, "r:<key>" while it is held at all.
func applyLockOp(facts cfg.FactSet, key, op string) {
	switch op {
	case "Lock":
		facts.Add("w:" + key)
		facts.Add("r:" + key)
	case "RLock":
		facts.Add("r:" + key)
	case "Unlock":
		facts.Remove("w:" + key)
		facts.Remove("r:" + key)
	case "RUnlock":
		facts.Remove("r:" + key)
	}
}

// lockOp classifies call as a sync.Mutex/RWMutex operation, directly
// or through an embedded mutex. op is one of Lock, RLock, Unlock,
// RUnlock; key names the mutex in the same vocabulary
// //hetpnoc:guardedby annotations resolve to ("Owner.mu" for a struct
// field, the bare name for a local or package-level mutex).
func lockOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	obj, objOK := info.Uses[sel.Sel].(*types.Func)
	if !objOK || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	key = lockKey(info, sel.X, obj)
	if key == "" {
		return "", "", false
	}
	return key, op, true
}

// lockKey names the mutex behind recv in the same vocabulary guardedby
// annotations resolve to: "Owner.mu" for a struct field, the bare name
// for a local or package-level mutex.
func lockKey(info *types.Info, recv ast.Expr, method *types.Func) string {
	t := info.TypeOf(recv)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" {
		// recv *is* the mutex: x.mu.Lock() or mu.Lock().
		switch e := recv.(type) {
		case *ast.SelectorExpr:
			ot := info.TypeOf(e.X)
			if ot != nil {
				if p, ok := ot.(*types.Pointer); ok {
					ot = p.Elem()
				}
				if on, ok := ot.(*types.Named); ok {
					return on.Obj().Name() + "." + e.Sel.Name
				}
			}
			return types.ExprString(e)
		case *ast.Ident:
			return e.Name
		default:
			return types.ExprString(recv)
		}
	}
	// Promoted call through an embedded mutex: s.Lock() where S embeds
	// sync.Mutex. The guard key is "S.<MutexTypeName>".
	if n, ok := t.(*types.Named); ok {
		if recvType := method.Type().(*types.Signature).Recv().Type(); recvType != nil {
			rt := recvType
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if rn, ok := rt.(*types.Named); ok {
				return n.Obj().Name() + "." + rn.Obj().Name()
			}
		}
	}
	return ""
}

// checkAccesses walks one node's expressions (in write/read context) and
// reports guarded-field accesses the current facts do not license.
// Encountered function literals are appended to lits for separate
// analysis.
func (c *checker) checkAccesses(info *types.Info, n ast.Node, facts cfg.FactSet, lits []*ast.FuncLit) []*ast.FuncLit {
	var walk func(n ast.Node, write bool)
	walkAll := func(write bool, nodes ...ast.Node) {
		for _, n := range nodes {
			if n != nil {
				walk(n, write)
			}
		}
	}
	walk = func(n ast.Node, write bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			lits = append(lits, n)
			return
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				walk(l, true)
			}
			walkAll(false, exprNodes(n.Rhs)...)
		case *ast.IncDecStmt:
			walk(n.X, true)
		case *ast.UnaryExpr:
			walk(n.X, write || n.Op == token.AND)
		case *ast.SelectorExpr:
			c.checkSelector(info, n, write, facts)
			walk(n.X, write)
		case *ast.IndexExpr:
			walk(n.X, write)
			walk(n.Index, false)
		case *ast.SliceExpr:
			walk(n.X, write)
			walkAll(false, n.Low, n.High, n.Max)
		case *ast.StarExpr:
			walk(n.X, write)
		case *ast.ParenExpr:
			walk(n.X, write)
		case *ast.CallExpr:
			// delete(s.pending, k) mutates its map argument.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					walk(n.Args[0], true)
					walk(n.Args[1], false)
					return
				}
			}
			walk(n.Fun, false)
			walkAll(false, exprNodes(n.Args)...)
		default:
			// Generic traversal in read context for everything else.
			ast.Inspect(n, func(ch ast.Node) bool {
				if ch == n {
					return true
				}
				switch ch := ch.(type) {
				case *ast.FuncLit:
					lits = append(lits, ch)
					return false
				case *ast.AssignStmt, *ast.IncDecStmt, *ast.UnaryExpr,
					*ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr,
					*ast.StarExpr, *ast.ParenExpr, *ast.CallExpr:
					walk(ch, false)
					return false
				}
				return true
			})
		}
	}
	walk(n, false)
	return lits
}

func exprNodes(exprs []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(exprs))
	for i, e := range exprs {
		out[i] = e
	}
	return out
}

// checkSelector reports sel when it names a guarded field the facts do
// not cover.
func (c *checker) checkSelector(info *types.Info, sel *ast.SelectorExpr, write bool, facts cfg.FactSet) {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	gd, ok := c.guards[v]
	if !ok {
		return
	}
	mode, need := "read", "r:"
	if write {
		mode, need = "write", "w:"
	}
	if facts.Has(need + gd.key) {
		return
	}
	held := "none"
	if hs := heldLocks(facts); len(hs) > 0 {
		held = strings.Join(hs, ", ")
	}
	verb := "Lock"
	if !write {
		verb = "Lock or RLock"
	}
	c.mp.Reportf(sel.Sel.Pos(),
		fmt.Sprintf("%s of %s is not guarded by %s on every path (held: %s)", mode, gd.field, gd.key, held),
		fmt.Sprintf("hold %s.%s() across this access, or annotate the function //hetpnoc:locked %s if its contract is that the caller holds it", gd.key, verb, gd.key))
}

// heldLocks renders facts for diagnostics: "Server.mu" when exclusively
// held, "Server.mu (read)" under RLock only.
func heldLocks(facts cfg.FactSet) []string {
	var out []string
	for _, f := range facts.Sorted() {
		if strings.HasPrefix(f, "w:") {
			out = append(out, strings.TrimPrefix(f, "w:"))
		} else if k := strings.TrimPrefix(f, "r:"); k != f && !facts.Has("w:"+k) {
			out = append(out, k+" (read)")
		}
	}
	return out
}

// observe records edge held→acquired for every qualified lock held in
// facts.
func (c *checker) observe(n *callgraph.Node, facts cfg.FactSet, acquired string, pos token.Pos) {
	for _, f := range facts.Sorted() {
		h, held := strings.CutPrefix(f, "r:")
		if !held || h == acquired || !dotted(h) {
			continue
		}
		c.addEdge(h, acquired, prov{
			desc: fmt.Sprintf("observed in %s at %s", n.Name(), c.at(pos)),
			pos:  pos,
		})
	}
}

func (c *checker) addEdge(outer, inner string, p prov) {
	m := c.edges[outer]
	if m == nil {
		m = make(map[string][]prov)
		c.edges[outer] = m
	}
	m[inner] = append(m[inner], p)
}

// checkPairs enforces the declaration rule: any function whose
// transitive acquisition set holds two qualified locks is a call tree
// those locks share, so the pair needs a //hetpnoc:lockorder in either
// direction. Each undeclared pair is reported once, at the first such
// function in deterministic order.
func (c *checker) checkPairs() {
	reported := make(map[[2]string]bool)
	for _, n := range c.g.Sorted {
		keys := sortedKeys(c.trans[n])
		if len(keys) < 2 {
			continue
		}
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				pair := [2]string{keys[i], keys[j]}
				if reported[pair] {
					continue
				}
				if _, ok := c.declared[pair]; ok {
					continue
				}
				if _, ok := c.declared[[2]string{pair[1], pair[0]}]; ok {
					continue
				}
				reported[pair] = true
				c.mp.Reportf(n.Decl.Name.Pos(),
					fmt.Sprintf("%s reaches acquisitions of both %s and %s with no declared order between them",
						n.Name(), pair[0], pair[1]),
					fmt.Sprintf("declare //hetpnoc:lockorder %s %s <why> (outer first) near the outer lock's type", pair[0], pair[1]))
			}
		}
	}
}

// checkCycles searches the combined declared∪observed graph for cycles
// and reports each once with every edge's evidence.
func (c *checker) checkCycles() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	seen := make(map[string]bool)

	report := func(cycle []string) {
		canon := canonical(cycle)
		if seen[canon] {
			return
		}
		seen[canon] = true
		var parts []string
		var first prov
		for i, k := range cycle {
			next := cycle[(i+1)%len(cycle)]
			ev := c.edges[k][next][0]
			if i == 0 {
				first = ev
			}
			parts = append(parts, fmt.Sprintf("%s -> %s (%s)", k, next, ev.desc))
		}
		c.mp.Reportf(first.pos,
			"lock-order deadlock: "+strings.Join(parts, "; "),
			"make every path acquire these locks in one declared order, or split the critical sections")
	}

	var dfs func(k string)
	dfs = func(k string) {
		color[k] = gray
		stack = append(stack, k)
		for _, next := range sortedKeys(c.edges[k]) {
			switch color[next] {
			case white:
				dfs(next)
			case gray:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == next {
						cycle := append([]string(nil), stack[i:]...)
						report(cycle)
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[k] = black
	}
	for _, k := range sortedKeys(c.edges) {
		if color[k] == white {
			dfs(k)
		}
	}
}

// canonical rotates cycle to start at its smallest key, so one cycle
// discovered from different entry points dedupes.
func canonical(cycle []string) string {
	min := 0
	for i, k := range cycle {
		if k < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	return strings.Join(rotated, "|")
}

// at renders pos as "file:line" with the file shortened to its base
// name — stable across checkouts, precise enough to jump to.
func (c *checker) at(pos token.Pos) string {
	p := c.mp.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func dotted(key string) bool { return strings.Contains(key, ".") }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
