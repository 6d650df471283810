// Package dettaint keeps nondeterminism out of the simulator core. Two
// runs with the same seed must be bit-identical (internal/sim package
// doc), so all randomness must flow through sim.RNG, all time through
// sim.Clock / sim.Cycle, and no result may depend on Go's randomized
// map iteration order. Tooling packages (cmd/*, internal/report,
// examples) are exempt — unless the simulator calls into them.
//
// The analyzer reads one source table (wall-clock members of package
// time, the math/rand and crypto/rand packages, testing/quick's
// unseeded driver) and one unordered-range predicate (a range over a
// map with no //hetpnoc:orderfree directive that is not the
// sorted-iteration prologue), and applies them twice:
//
//   - Directly, in every simulator-package file, package scope
//     included: importing math/rand or crypto/rand, reading the wall
//     clock, calling testing/quick outside a //hetpnoc:detsafe
//     function, and ranging over a map without sorting the keys or
//     justifying the order-insensitivity are reported where they
//     appear.
//   - Through the call graph: a module function whose body calls a
//     source, or (outside the simulator packages) ranges over a map
//     unordered, is tainted; taint propagates caller-ward over all
//     call-graph edges until fixpoint. A call from a simulator-package
//     function to a tainted helper outside the simulator core is an
//     error; the diagnostic carries the taint chain from the call site
//     down to the intrinsic source. Tainted simulator-package callees
//     already carry their direct report at the source.
//
// A map range is allowed when it is the sorted-iteration prologue — a
// key-collection loop `for k := range m { keys = append(keys, k) }`
// whose target slice is passed to a sort or slices call later in the
// same function — or when the statement carries a
// //hetpnoc:orderfree <why> directive (same line or the line above)
// explaining why its body is insensitive to order.
//
// //hetpnoc:detsafe <why> on a function's doc comment declares that
// its nondeterminism never reaches simulator state — the canonical case
// is a property test that deliberately samples random inputs and prints
// any counterexample. A detsafe function is treated as clean: it does
// not taint its callers and its testing/quick calls are not reported.
// Wall-clock reads and entropy imports in simulator packages have no
// such escape.
package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
)

// Analyzer is the dettaint check.
var Analyzer = &analysis.Analyzer{
	Name: "dettaint",
	Doc: "forbid nondeterminism sources in simulator packages, directly or through the call graph\n\n" +
		"Simulator state may only advance from seeded sim.RNG draws and the\n" +
		"sim.Cycle clock. Wall-clock time, math/rand, crypto/rand,\n" +
		"testing/quick and unsorted map ranges are reported where they\n" +
		"appear in simulator packages; taint from the same sources\n" +
		"propagates up the call graph, and a sim-package call to a tainted\n" +
		"helper is reported with the full taint chain. Sort map keys or\n" +
		"annotate //hetpnoc:orderfree <why>; declare deliberate sampling\n" +
		"with //hetpnoc:detsafe <why>.",
	RunModule: run,
}

// entropyPkgs are packages every member of which is a nondeterminism
// source (or, for crypto/rand, an entropy source the simulator must
// never need): a simulator package may not even import them.
var entropyPkgs = map[string]string{
	"math/rand":    "use the run-owned *sim.RNG instead",
	"math/rand/v2": "use the run-owned *sim.RNG instead",
	"crypto/rand":  "the simulator must not consume OS entropy",
}

// wallClock are the wall-clock members of package time. Types and
// constants (time.Duration, time.Second) remain usable for reporting
// physical quantities; anything that reads or waits on the host clock
// does not.
var wallClock = map[string]string{
	"Now":       "derive timestamps from the sim.Cycle counter",
	"Since":     "subtract sim.Cycle values instead",
	"Until":     "subtract sim.Cycle values instead",
	"Sleep":     "schedule future work on the sim.TimerWheel",
	"After":     "schedule future work on the sim.TimerWheel",
	"AfterFunc": "schedule future work on the sim.TimerWheel",
	"Tick":      "schedule recurring work on the sim.TimerWheel",
	"NewTimer":  "schedule future work on the sim.TimerWheel",
	"NewTicker": "schedule recurring work on the sim.TimerWheel",
}

// source returns the display name of member of package pkg when it is
// a nondeterminism source, or "".
func source(pkg, member string) string {
	switch {
	case entropyPkgs[pkg] != "":
		return pkg + "." + member
	case pkg == "time" && wallClock[member] != "":
		return "time." + member
	case pkg == "testing/quick" && strings.HasPrefix(member, "Check"):
		// quick.Check / quick.CheckEqual draw from an unseeded
		// rand.Source unless a Config supplies one.
		return "testing/quick." + member
	}
	return ""
}

// taint records how a function first became tainted: either an
// intrinsic source inside its own body (next == nil) or a call to an
// already-tainted module function.
type taint struct {
	source string          // intrinsic: display name of the source
	pos    token.Pos       // source position / call-site position
	next   *callgraph.Node // propagated: the tainted callee
}

func run(mp *analysis.ModulePass) error {
	g := callgraph.FromPass(mp)
	dirs := analysis.NewDirectiveCache(mp.Fset)

	for _, u := range mp.Pkgs {
		if isSim(u) {
			for _, f := range u.Files {
				checkFile(mp, u, dirs.For(u, f.Pos()), f)
			}
		}
	}

	detsafe := make(map[*callgraph.Node]bool)
	for _, n := range g.Sorted {
		dir, ok := analysis.FuncDirective(n.Decl, analysis.DirectiveDetsafe)
		if !ok {
			continue
		}
		if dir.Arg == "" {
			mp.Reportf(n.Decl.Name.Pos(),
				"//hetpnoc:detsafe needs a justification for why the nondeterminism never reaches simulator state",
				"//hetpnoc:detsafe <why sampling here is deliberate and contained>")
		}
		detsafe[n] = true
	}

	// Seed: intrinsic taint, in deterministic node order.
	taints := make(map[*callgraph.Node]*taint)
	var queue []*callgraph.Node
	for _, n := range g.Sorted {
		if detsafe[n] {
			continue
		}
		if t := intrinsic(dirs, n); t != nil {
			taints[n] = t
			queue = append(queue, n)
		}
	}

	// Propagate caller-ward, BFS so recorded chains are shortest.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			c := e.Caller
			if detsafe[c] {
				continue
			}
			if _, done := taints[c]; done {
				continue
			}
			taints[c] = &taint{pos: e.Pos(), next: n}
			queue = append(queue, c)
		}
	}

	// Report sim-package calls to tainted helpers outside the sim core.
	for _, n := range g.Sorted {
		if !isSim(n.Unit) || detsafe[n] {
			continue
		}
		for _, e := range n.Out {
			callee := e.Callee
			t, bad := taints[callee]
			if !bad || isSim(callee.Unit) {
				continue
			}
			mp.Reportf(e.Pos(),
				fmt.Sprintf("call to %s is nondeterministic in a simulator package (taint: %s)",
					callee.Name(), chainOf(callee, t, taints)),
				"make the helper deterministic, thread a seeded source through it, or annotate //hetpnoc:detsafe <why>")
		}
	}
	return nil
}

// isSim reports whether u belongs to the simulator core; an external
// test package counts as the package it tests.
func isSim(u *analysis.PackageUnit) bool {
	return analysis.IsSimPackage(strings.TrimSuffix(u.Path, "_test"))
}

// checkFile reports every direct use of a nondeterminism source in one
// simulator-package file: entropy imports, qualified references to
// source members anywhere in the file (package-level initializers
// included), and unordered map ranges in function bodies.
func checkFile(mp *analysis.ModulePass, u *analysis.PackageUnit, dirs *analysis.Directives, file *ast.File) {
	for _, imp := range file.Imports {
		// The path literal is always a valid quoted string once the
		// file type-checks.
		path := imp.Path.Value[1 : len(imp.Path.Value)-1]
		if hint, ok := entropyPkgs[path]; ok {
			mp.Reportf(imp.Pos(),
				fmt.Sprintf("import of %s is forbidden in simulator packages: %s", path, hint),
				"thread a *sim.RNG (seeded from the run config) through the component")
		}
	}

	for _, decl := range file.Decls {
		fd, _ := decl.(*ast.FuncDecl) // nil at package scope
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if fd != nil {
					checkRange(mp, u, dirs, fd.Body, n)
				}
			case *ast.SelectorExpr:
				checkSelector(mp, u, fd, n)
			}
			return true
		})
	}
}

// checkSelector reports a qualified reference pkg.Member to a source.
// Entropy packages are reported once, at their import.
func checkSelector(mp *analysis.ModulePass, u *analysis.PackageUnit, fd *ast.FuncDecl, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := u.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	pkg, member := pn.Imported().Path(), sel.Sel.Name
	name := source(pkg, member)
	if name == "" || entropyPkgs[pkg] != "" {
		return
	}
	if pkg == "time" {
		mp.Reportf(sel.Pos(),
			fmt.Sprintf("time.%s reads the wall clock, which breaks run reproducibility: %s", member, wallClock[member]),
			"express the quantity in sim.Cycle ticks")
		return
	}
	if fd != nil {
		if _, safe := analysis.FuncDirective(fd, analysis.DirectiveDetsafe); safe {
			return
		}
	}
	mp.Reportf(sel.Pos(),
		fmt.Sprintf("%s draws unseeded randomness in a simulator package, which breaks run reproducibility", name),
		"seed the source explicitly, or annotate the function //hetpnoc:detsafe <why>")
}

// checkRange reports an unordered range over a map inside body, and an
// //hetpnoc:orderfree directive that lacks its justification.
func checkRange(mp *analysis.ModulePass, u *analysis.PackageUnit, dirs *analysis.Directives, body *ast.BlockStmt, rs *ast.RangeStmt) {
	t, ordered, dir := rangeOrder(u.TypesInfo, dirs, body, rs)
	if dir != nil && dir.Arg == "" {
		mp.Reportf(rs.Pos(),
			"//hetpnoc:orderfree needs a justification explaining why this range is order-insensitive",
			"//hetpnoc:orderfree <why the body is insensitive to iteration order>")
	}
	if t != nil && !ordered {
		mp.Reportf(rs.Pos(),
			fmt.Sprintf("range over map %s has randomized iteration order, which breaks run reproducibility; iterate sorted keys instead",
				types.TypeString(t, types.RelativeTo(u.Pkg))),
			"//hetpnoc:orderfree <why> on the line above, if the body is order-insensitive")
	}
}

// rangeOrder is the unordered-range predicate. t is the ranged map type
// (nil when rs does not range over a map); ordered reports that the
// iteration order cannot leak, because an //hetpnoc:orderfree directive
// covers rs (returned as dir) or rs is the sorted-iteration prologue
// within body.
func rangeOrder(info *types.Info, dirs *analysis.Directives, body *ast.BlockStmt, rs *ast.RangeStmt) (t types.Type, ordered bool, dir *analysis.Directive) {
	t = info.TypeOf(rs.X)
	if t == nil {
		return nil, false, nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil, false, nil
	}
	if dirs != nil {
		if d, ok := dirs.Covering(rs, analysis.DirectiveOrderfree); ok {
			return t, true, &d
		}
	}
	return t, isSortedCollect(info, body, rs), nil
}

// intrinsic returns n's own-body taint, or nil: an external call into
// the source table, or an unordered range over a map in a non-sim
// package (sim-package ranges carry their own direct report).
func intrinsic(dirs *analysis.DirectiveCache, n *callgraph.Node) *taint {
	for _, ext := range n.External {
		if pkg := ext.Func.Pkg(); pkg != nil {
			if name := source(pkg.Path(), ext.Func.Name()); name != "" {
				return &taint{source: name, pos: ext.Pos}
			}
		}
	}
	if isSim(n.Unit) {
		return nil
	}
	var found *ast.RangeStmt
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if found != nil {
			return false
		}
		if rs, ok := nd.(*ast.RangeStmt); ok {
			if t, ordered, _ := rangeOrder(n.Unit.TypesInfo, dirs.For(n.Unit, rs.Pos()), n.Decl.Body, rs); t != nil && !ordered {
				found = rs
				return false
			}
		}
		return true
	})
	if found == nil {
		return nil
	}
	return &taint{source: "range over map", pos: found.Pos()}
}

// isSortedCollect recognizes the sorted-iteration prologue: the loop
// body is exactly `keys = append(keys, k)` for the range key, and the
// same function later hands keys to package sort or slices. The sort
// erases the nondeterministic collection order.
func isSortedCollect(info *types.Info, fn *ast.BlockStmt, rs *ast.RangeStmt) bool {
	if rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	target := types.ExprString(as.Lhs[0])
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || arg.Name != key.Name || types.ExprString(call.Args[0]) != target {
		return false
	}

	// Look for sort.X(target, ...) or slices.X(target, ...) after the
	// loop in the same function.
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rs.End() || len(c.Args) == 0 {
			return true
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		if types.ExprString(c.Args[0]) == target {
			sorted = true
		}
		return true
	})
	return sorted
}

// chainOf renders the taint chain from n down to its intrinsic source,
// e.g. "stats.Summary -> stats.merge -> time.Now".
func chainOf(n *callgraph.Node, t *taint, taints map[*callgraph.Node]*taint) string {
	var parts []string
	for {
		parts = append(parts, n.Name())
		if t.next == nil {
			parts = append(parts, t.source)
			break
		}
		n = t.next
		t = taints[n]
	}
	return strings.Join(parts, " -> ")
}
