// Package seedflow checks the RNG fork lifecycle that the batch engine
// depends on. Restoring a fabric from a checkpoint copies the
// checkpoint's RNG state into the fabric; running it without reseeding
// replays the recorded random stream, which silently correlates what
// should be independent replicas. internal/batch/run.go is the
// contract: every fork goes Restore → SetLoadScale → Reseed →
// StepContext.
//
// seedflow enforces the contract with a path-sensitive may-analysis
// over the internal/analysis/cfg graph: a fabric that flows through
// Restore(cp) becomes stale, Reseed(...) clears it, and reaching
// Run/RunContext/StepContext while stale on ANY path is a finding
// (Step is deliberately not a sink — cycle-by-cycle replay of a
// restored fabric is how the checkpoint oracles verify bit-identity).
// Fabric variables are canonicalized through the value-flow layer
// (internal/analysis/vflow), so `g := f; g.Restore(cp); f.Reseed(s)`
// resolves to one fabric.
//
// The analysis also tracks which checkpoint's RNG state each stale
// fabric holds: restoring one checkpoint into a second fabric while a
// first fabric still carries its stream (no intervening Reseed) aliases
// one random stream into two live fabrics and is reported at the second
// Restore.
//
// Fabrics are recognized structurally — a method receiver of the named
// type Fabric declared in a package whose import path ends in /fabric —
// so fixture packages exercise the same rules as the real module.
// Deliberate stream replay carries //hetpnoc:sharedseed <why>.
package seedflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/cfg"
	"hetpnoc/internal/analysis/vflow"
)

// Analyzer flags fabric runs whose restored RNG state was never
// reseeded, and checkpoint RNG state aliased into two live fabrics.
var Analyzer = &analysis.Analyzer{
	Name:      "seedflow",
	Doc:       "enforce the Restore→Reseed fork contract: a restored fabric must be reseeded before it runs",
	RunModule: run,
}

const (
	staleSuggestion = "call Reseed between Restore and the run (the batch fork contract: " +
		"Restore → SetLoadScale → Reseed → StepContext, see internal/batch/run.go), " +
		"or annotate //hetpnoc:sharedseed <why> if replaying the recorded stream is deliberate"
	aliasSuggestion = "Reseed the first fabric before restoring the same checkpoint into another, " +
		"or annotate //hetpnoc:sharedseed <why> if the shared stream is deliberate"
)

func run(mp *analysis.ModulePass) error {
	vf := vflow.FromPass(mp)
	dc := analysis.NewDirectiveCache(mp.Fset)
	for _, u := range mp.Pkgs {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !mentionsRestore(fd.Body) {
					continue
				}
				c := &checker{
					mp:   mp,
					unit: u,
					dc:   dc,
					info: u.TypesInfo,
					fi:   vf.FuncInfo(fd.Body, u.TypesInfo),
				}
				c.check()
			}
		}
	}
	return nil
}

// mentionsRestore cheaply gates the dataflow: without a Restore call no
// fact can ever be generated.
func mentionsRestore(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Restore" {
			found = true
		}
		return !found
	})
	return found
}

type checker struct {
	mp   *analysis.ModulePass
	unit *analysis.PackageUnit
	dc   *analysis.DirectiveCache
	info *types.Info
	fi   *vflow.FuncInfo
}

// Fact vocabulary:
//
//	"stale|<fabric>"           — fabric restored, not yet reseeded
//	"rng|<checkpoint>|<fabric>" — fabric currently holds that
//	                              checkpoint's RNG stream
func (c *checker) check() {
	g := c.fi.Graph
	in := g.ForwardMay(cfg.NewFactSet(), func(n ast.Node, facts cfg.FactSet) {
		c.apply(n, facts, nil)
	})
	for _, blk := range g.Blocks {
		entry, reachable := in[blk]
		if !reachable {
			continue
		}
		facts := entry.Clone()
		for _, n := range blk.Nodes {
			c.apply(n, facts, c.report)
		}
	}
}

// apply interprets one cfg node's fabric calls against facts, in AST
// order. With report nil it is the pure transfer function for the
// fixpoint; the replay pass passes the reporter.
func (c *checker) apply(n ast.Node, facts cfg.FactSet, report func(n ast.Node, msg, sugg string)) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false // runs at an unknown time; analyzed on its own facts
		case *ast.AssignStmt:
			// Rebinding a variable discards whatever fabric state it
			// named: f = fabric.New(...) is fresh, never stale.
			for _, lhs := range nd.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					c.killFabric(facts, c.key(id))
				}
			}
		case *ast.CallExpr:
			c.call(nd, facts, report)
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr, facts cfg.FactSet, report func(n ast.Node, msg, sugg string)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok || !isFabricMethod(obj) {
		return
	}
	fkey := c.key(sel.X)
	switch sel.Sel.Name {
	case "Restore":
		if len(call.Args) < 1 {
			return
		}
		cpkey := c.key(call.Args[0])
		if report != nil {
			prefix := "rng|" + cpkey + "|"
			for _, f := range facts.Sorted() {
				if strings.HasPrefix(f, prefix) && f != prefix+fkey {
					report(call, fmt.Sprintf(
						"checkpoint RNG state aliased: %s was already restored into another fabric that has not been reseeded",
						types.ExprString(call.Args[0])), aliasSuggestion)
					break
				}
			}
		}
		c.killFabric(facts, fkey)
		facts.Add("stale|" + fkey)
		facts.Add(prefixJoin(cpkey, fkey))
	case "Reseed":
		c.killFabric(facts, fkey)
	case "Run", "RunContext", "StepContext":
		if report != nil && facts.Has("stale|"+fkey) {
			report(call, fmt.Sprintf(
				"fabric runs with a restored checkpoint's RNG state: Restore is not followed by Reseed on every path before %s",
				sel.Sel.Name), staleSuggestion)
		}
	}
}

func prefixJoin(cpkey, fkey string) string { return "rng|" + cpkey + "|" + fkey }

// killFabric removes every fact about the fabric key: its staleness and
// any checkpoint stream it held.
func (c *checker) killFabric(facts cfg.FactSet, fkey string) {
	facts.Remove("stale|" + fkey)
	for _, f := range facts.Sorted() {
		if strings.HasPrefix(f, "rng|") && strings.HasSuffix(f, "|"+fkey) {
			facts.Remove(f)
		}
	}
}

// report delivers the diagnostic unless a justified
// //hetpnoc:sharedseed covers the call's line.
func (c *checker) report(n ast.Node, msg, sugg string) {
	if dirs := c.dc.For(c.unit, n.Pos()); dirs != nil {
		if dir, ok := dirs.Covering(n, analysis.DirectiveSharedseed); ok {
			if dir.Arg == "" {
				c.mp.Reportf(n.Pos(),
					"//hetpnoc:sharedseed needs a justification explaining why replaying the checkpoint's RNG stream is correct",
					"//hetpnoc:sharedseed <why the shared stream is deliberate>")
			}
			return
		}
	}
	c.mp.Reportf(n.Pos(), msg, sugg)
}

// key canonicalizes the expression naming a fabric or checkpoint.
// Identifiers resolve through vflow single-definition chains to the
// original variable (`g := f` names the same fabric as f); anything
// else keys on its printed form.
func (c *checker) key(e ast.Expr) string {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if v := c.fi.Canonical(id); v != nil {
			return fmt.Sprintf("v%d", v.Pos())
		}
	}
	return "e " + types.ExprString(e)
}

// isFabricMethod reports whether obj is a method of the named type
// Fabric declared in a package whose last path segment is "fabric".
func isFabricMethod(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if tn.Name() != "Fabric" || tn.Pkg() == nil {
		return false
	}
	return vflow.PkgLastSegment(tn.Pkg().Path()) == "fabric"
}
