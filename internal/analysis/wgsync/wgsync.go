// Package wgsync proves WaitGroup discipline around goroutine spawns —
// the sync.WaitGroup contract the serve worker pool, the batch
// work-stealing scheduler and the sweep fan-out all depend on:
//
//   - Add never runs inside the goroutine it accounts for. The spawner
//     can reach Wait before the goroutine is scheduled; the counter is
//     still zero and Wait returns early — the classic lost-add race.
//   - Add dominates the spawn it covers: on every control-flow path
//     reaching a go statement whose goroutine calls Done on a group,
//     that group's Add already happened. This is a CFG must-analysis
//     like lockguard's: the fact "add|<wg>" is generated by Add,
//     killed by Wait (the counter may be consumed), and checked at the
//     go statement.
//   - A Wait can return: a group that is Added and Waited on somewhere
//     in the module but never Doned blocks its Wait forever.
//
// Groups are keyed through the conc layer (vflow-canonicalized locals,
// declaring-type-keyed fields), so `s.wg.Add` in the constructor and
// `s.wg.Done` in the worker meet. Keys whose group is address-taken
// are exempt from the balance check — ops may happen under parameter
// keys the layer cannot match. Spawns declared //hetpnoc:daemon skip
// the domination check: a daemon's Done (if any) is not a join.
package wgsync

import (
	"fmt"
	"go/ast"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/cfg"
	"hetpnoc/internal/analysis/conc"
)

// Analyzer flags Add-inside-goroutine, Adds that fail to dominate the
// spawn they cover, and Waits that can never return.
var Analyzer = &analysis.Analyzer{
	Name:      "wgsync",
	Doc:       "WaitGroup.Add dominates the spawn it covers, never runs inside the goroutine, and every Wait can return",
	RunModule: run,
}

func run(mp *analysis.ModulePass) error {
	m := conc.FromPass(mp)
	dc := analysis.NewDirectiveCache(mp.Fset)
	c := &checker{mp: mp, m: m, dc: dc}
	for _, fi := range m.Sorted {
		c.addInSpawn(fi)
		c.addDominates(fi)
	}
	c.waitBalance()
	return nil
}

type checker struct {
	mp *analysis.ModulePass
	m  *conc.Module
	dc *analysis.DirectiveCache
}

// addInSpawn flags Add calls lexically inside a spawned goroutine.
func (c *checker) addInSpawn(fi *conc.FuncInfo) {
	for _, op := range fi.WGOps {
		if op.Kind != conc.WGAdd || op.InSpawn == nil {
			continue
		}
		if c.daemonCovers(fi, op.InSpawn) {
			continue
		}
		c.mp.Reportf(op.Call.Pos(), fmt.Sprintf(
			"%s.Add inside the spawned goroutine: the spawner can reach Wait before this runs and miss the count",
			op.Expr),
			fmt.Sprintf("call %s.Add on the spawning side, before the go statement", op.Expr))
	}
}

// addDominates runs the must-analysis: for each spawn whose goroutine
// calls Done on a group, the fact "add|<key>" must hold at the go
// statement on every path.
func (c *checker) addDominates(fi *conc.FuncInfo) {
	// Which groups does each spawn's goroutine Done? Literal spawns
	// look inside the literal; callee spawns use the callee's body,
	// field- or package-keyed only (local keys don't match across the
	// call).
	spawnDones := make(map[*ast.GoStmt][]string)
	for _, sp := range fi.Spawns {
		if c.daemonCovers(fi, sp.Stmt) {
			continue
		}
		var keys []string
		if sp.Lit != nil {
			for _, op := range fi.WGOps {
				if op.Kind == conc.WGDone && op.InSpawn == sp.Stmt {
					keys = append(keys, op.Key)
				}
			}
		} else if sp.Callee != nil {
			for _, op := range sp.Callee.WGOps {
				if op.Kind == conc.WGDone && op.InSpawn == nil &&
					(strings.HasPrefix(op.Key, "f|") || strings.HasPrefix(op.Key, "g|")) {
					keys = append(keys, op.Key)
				}
			}
		}
		if len(keys) > 0 {
			spawnDones[sp.Stmt] = keys
		}
	}
	if len(spawnDones) == 0 {
		return
	}

	// Map the function's own counter ops to their calls so the
	// transfer function can interpret a node lexically.
	opOf := make(map[*ast.CallExpr]*conc.WGOp)
	for _, op := range fi.WGOps {
		if op.InSpawn == nil {
			opOf[op.Call] = op
		}
	}
	transfer := func(n ast.Node, facts cfg.FactSet) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if op := opOf[nd]; op != nil {
					switch op.Kind {
					case conc.WGAdd:
						facts.Add("add|" + op.Key)
					case conc.WGWait:
						// The counter may be consumed: a spawn after
						// Wait needs its own Add.
						facts.Remove("add|" + op.Key)
					}
				}
			}
			return true
		})
	}

	g := c.m.Graph(fi.Decl.Body, fi.Unit)
	in := g.ForwardMust(cfg.NewFactSet(), transfer)
	exprOf := func(key string) string {
		for _, op := range fi.WGOps {
			if op.Key == key {
				return op.Expr
			}
		}
		return key
	}
	for _, blk := range g.Blocks {
		entry, reachable := in[blk]
		if !reachable {
			continue
		}
		facts := entry.Clone()
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(nd ast.Node) bool {
				switch nd := nd.(type) {
				case *ast.FuncLit:
					return false
				case *ast.GoStmt:
					for _, key := range spawnDones[nd] {
						if !facts.Has("add|" + key) {
							c.mp.Reportf(nd.Pos(), fmt.Sprintf(
								"go statement spawns a goroutine that calls %s.Done, but %s.Add does not reach the spawn on every path",
								exprOf(key), exprOf(key)),
								"call Add before the go statement on every path (or Add the whole batch before the spawn loop)")
						}
					}
				}
				return true
			})
			transfer(n, facts)
		}
	}
}

// waitBalance flags Waits on groups that are Added somewhere but Doned
// nowhere in the module — the Wait can never return.
func (c *checker) waitBalance() {
	for _, key := range c.m.WGKeys() {
		if c.m.WGEscaped(key) {
			continue // ops may hide under unmatchable parameter keys
		}
		idx := c.m.WG(key)
		if len(idx.Waits) == 0 || len(idx.Adds) == 0 || len(idx.Dones) > 0 {
			continue
		}
		for _, w := range idx.Waits {
			c.mp.Reportf(w.Op.Call.Pos(), fmt.Sprintf(
				"%s.Wait can never return: the group is Added (e.g. in %s) but no Done exists in the module",
				w.Op.Expr, idx.Adds[0].Fn.Name()),
				"give every Added worker a Done (usually deferred at the top of the worker), or drop the Wait")
		}
	}
}

// daemonCovers reports whether a justified //hetpnoc:daemon covers the
// go statement. An unjustified daemon directive is goleak's finding,
// not repeated here.
func (c *checker) daemonCovers(fi *conc.FuncInfo, g *ast.GoStmt) bool {
	dirs := c.dc.For(fi.Unit, g.Pos())
	if dirs == nil {
		return false
	}
	_, ok := dirs.Covering(g, analysis.DirectiveDaemon)
	return ok
}
