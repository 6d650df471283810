// Package goleak proves goroutine lifetime: every go statement must
// spawn a goroutine that can terminate, join, or be a declared daemon.
// ROADMAP item 3 turns the simulator into a long-running job service,
// where a leaked goroutine is a slow-motion outage — the same
// resource-stranding failure the fair-admission crossbar guards
// against in hardware.
//
// The check is built on the conc layer's can-return analysis: a spawn
// is clean when the spawned function (a literal, or a statically
// resolved declared callee) has at least one control-flow path to an
// exit, calls to module functions that never return included. A
// goroutine with no such path must show one of:
//
//   - a quit signal: a receive from a channel of empty structs
//     (ctx.Done(), a quit/stop channel) anywhere along the
//     non-returning chain — the goroutine observes shutdown even if
//     the analysis cannot prove the loop exits;
//   - a WaitGroup join: the goroutine calls Done on a group some
//     module function Waits on;
//   - an explicit //hetpnoc:daemon <why> directive on the go
//     statement, declaring a process-lifetime goroutine.
//
// Diagnostics carry the spawn→blocking-function chain, resolved
// through the CHA call graph's static edges, so the report names the
// function that actually loops forever, not just the go statement.
// Spawns through function-typed values are skipped — the callee set is
// open, the same stance callgraph takes for unknown call sites.
package goleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/conc"
)

// Analyzer flags go statements whose goroutine provably never
// terminates and is neither joined, quit-signaled, nor a declared
// daemon.
var Analyzer = &analysis.Analyzer{
	Name:      "goleak",
	Doc:       "every go statement must terminate, join a WaitGroup, watch a quit channel, or be a declared //hetpnoc:daemon",
	RunModule: run,
}

const suggestion = "select on ctx.Done() or a quit channel inside the loop, bound the loop, " +
	"join the goroutine with a WaitGroup Done+Wait, or annotate the go statement " +
	"//hetpnoc:daemon <why> if it deliberately lives for the whole process"

func run(mp *analysis.ModulePass) error {
	m := conc.FromPass(mp)
	dc := analysis.NewDirectiveCache(mp.Fset)
	c := &checker{mp: mp, m: m, dc: dc}
	for _, fi := range m.Sorted {
		for _, sp := range fi.Spawns {
			c.spawn(fi, sp)
		}
	}
	return nil
}

type checker struct {
	mp *analysis.ModulePass
	m  *conc.Module
	dc *analysis.DirectiveCache
}

func (c *checker) spawn(fi *conc.FuncInfo, sp *conc.Spawn) {
	var (
		rootBody *ast.BlockStmt
		rootName string
		rootFn   *conc.FuncInfo
	)
	switch {
	case sp.Lit != nil:
		rootBody = sp.Lit.Body
		rootName = "func literal"
	case sp.Callee != nil:
		rootFn = sp.Callee
		rootBody = rootFn.Decl.Body
		rootName = rootFn.Name()
	default:
		// Out-of-module callee (lifetime owned elsewhere) or a
		// function-typed value (open callee set, like callgraph).
		return
	}

	canReturn := false
	if rootFn != nil {
		canReturn = rootFn.CanReturn()
	} else {
		canReturn = c.m.LitCanReturn(sp.Lit, fi.Unit)
	}
	if canReturn {
		return
	}

	// The non-returning chain, for the diagnostic and the quit scan.
	steps := c.chain(rootName, rootBody, rootFn, fi)

	names := make([]string, len(steps))
	for i, st := range steps {
		names[i] = st.name
		if hasQuitSignal(st.body, st.unit) {
			return
		}
	}
	if c.joined(fi, sp, rootFn) {
		return
	}
	c.report(fi, sp, names)
}

// chainStep is one link of the spawn→blocker chain.
type chainStep struct {
	name string
	body *ast.BlockStmt
	unit *analysis.PackageUnit
}

// chain follows the spawn into the function that never returns: while
// the current body could exit on its own (intrinsically), the blocker
// is the static callee that truncated its can-return walk — step into
// it.
func (c *checker) chain(rootName string, rootBody *ast.BlockStmt, rootFn, encl *conc.FuncInfo) []chainStep {
	unit := encl.Unit
	if rootFn != nil {
		unit = rootFn.Unit
	}
	steps := []chainStep{{name: rootName, body: rootBody, unit: unit}}
	body, fn := rootBody, rootFn
	for depth := 0; depth < 10; depth++ {
		if fn != nil && !fn.IntrinsicReturn() {
			break // this body's own control flow is the blocker
		}
		next := c.m.NonReturningCall(body)
		if next == nil {
			break
		}
		steps = append(steps, chainStep{name: next.Name(), body: next.Decl.Body, unit: next.Unit})
		body, fn = next.Decl.Body, next
	}
	return steps
}

// joined reports whether the goroutine Dones a WaitGroup that some
// module function Waits on. For literal spawns the Done must sit
// inside the spawned literal; for callee spawns, in the callee's body
// on the goroutine side, keyed by a field or package-level group (a
// local key cannot be matched across the call).
func (c *checker) joined(fi *conc.FuncInfo, sp *conc.Spawn, rootFn *conc.FuncInfo) bool {
	check := func(key string) bool {
		return len(c.m.WG(key).Waits) > 0
	}
	if sp.Lit != nil {
		for _, op := range fi.WGOps {
			if op.Kind == conc.WGDone && op.InSpawn == sp.Stmt && check(op.Key) {
				return true
			}
		}
		return false
	}
	for _, op := range rootFn.WGOps {
		if op.Kind != conc.WGDone || op.InSpawn != nil {
			continue
		}
		if !strings.HasPrefix(op.Key, "f|") && !strings.HasPrefix(op.Key, "g|") {
			continue
		}
		if check(op.Key) {
			return true
		}
	}
	return false
}

// hasQuitSignal reports whether body receives from a quit channel — a
// channel of empty structs, the ctx.Done()/stop-channel convention.
func hasQuitSignal(body *ast.BlockStmt, unit *analysis.PackageUnit) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			if conc.IsQuitChan(unit.TypesInfo.TypeOf(ue.X)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// report delivers the finding unless a justified //hetpnoc:daemon
// covers the go statement.
func (c *checker) report(fi *conc.FuncInfo, sp *conc.Spawn, chain []string) {
	if dirs := c.dc.For(fi.Unit, sp.Stmt.Pos()); dirs != nil {
		if dir, ok := dirs.Covering(sp.Stmt, analysis.DirectiveDaemon); ok {
			if dir.Arg == "" {
				c.mp.Reportf(sp.Stmt.Pos(),
					"//hetpnoc:daemon needs a justification explaining why this goroutine may run for the whole process",
					"//hetpnoc:daemon <why the goroutine is a deliberate daemon>")
			}
			return
		}
	}
	c.mp.Reportf(sp.Stmt.Pos(), fmt.Sprintf(
		"goroutine never terminates: %s has no path to an exit and no quit signal, join, or daemon declaration",
		strings.Join(chain, " → ")), suggestion)
}
