// Package unitsafe checks dimensional consistency over the typed
// physical quantities of internal/units. The quantity types (units.DB,
// units.MilliWatt, units.Picojoule, units.Gbps, ... plus sim.Cycle) make
// most cross-domain arithmetic a compile error, but two escape hatches
// remain open at the type level, and unitsafe closes both:
//
//   - Laundering casts. float64(mw) erases the milliwatt domain, and
//     units.DB(float64(mw)) then re-enters a different one — the exact
//     dB-vs-linear confusion the typed quantities exist to prevent.
//     unitsafe tracks value provenance through bare numeric casts and
//     local def-use chains (internal/analysis/vflow), and flags any
//     conversion whose source provenance names one unit domain and whose
//     target names another. The same tracking flags sim.Cycle values
//     built from wall-clock quantities (time.Duration and friends).
//
//   - Laundered arithmetic. float64(db) + float64(mw) never re-enters a
//     unit type, but still adds a logarithmic quantity to a linear one.
//     unitsafe flags + and - whose two operands carry provenance from
//     different unit domains. (Multiplication and division legitimately
//     change dimension — a rate times a length is a loss — so only the
//     domain-preserving operators are checked.)
//
// Deliberate cross-domain conversions go through the blessed helpers of
// the units package itself (units.DBToLinear, units.DBmToMilliWatt,
// units.CyclesToSeconds), which encode the paper's actual formulas;
// those are ordinary calls, not casts, and pass untouched. The units
// package (any package whose import path ends in /units) is exempt
// wholesale — it is the one place conversions are defined. Anywhere
// else, a justified //hetpnoc:unitcast <why> exempts a single
// expression.
//
// Unit domains are recognized structurally, so fixture packages work
// the same way as the real module: a defined numeric type declared in a
// package whose last path segment is "units", the type Cycle in a
// package whose last segment is "sim", and any named numeric type of
// the standard time package (the wall-clock domain).
package unitsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/vflow"
)

// Analyzer flags unit-laundering casts and cross-domain arithmetic.
var Analyzer = &analysis.Analyzer{
	Name:      "unitsafe",
	Doc:       "flag arithmetic and bare casts that mix physical unit domains (dB, mW, pJ, Gb/s, cycles, wall-clock)",
	RunModule: run,
}

const suggestion = "convert through a units helper (units.DBToLinear, units.DBmToMilliWatt, units.CyclesToSeconds, ...) " +
	"or annotate //hetpnoc:unitcast <why> if the cross-domain operation is deliberate"

func run(mp *analysis.ModulePass) error {
	vf := vflow.FromPass(mp)
	dc := analysis.NewDirectiveCache(mp.Fset)
	for _, u := range mp.Pkgs {
		if vflow.PkgLastSegment(u.Path) == "units" {
			continue // the conversion definitions themselves
		}
		c := &checker{mp: mp, unit: u, vf: vf, dc: dc}
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c.fi = vf.FuncInfo(fd.Body, u.TypesInfo)
				c.checkBody(fd.Body)
			}
		}
	}
	return nil
}

type checker struct {
	mp   *analysis.ModulePass
	unit *analysis.PackageUnit
	vf   *vflow.Module
	dc   *analysis.DirectiveCache
	fi   *vflow.FuncInfo
}

func (c *checker) checkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkConversion(n)
		case *ast.BinaryExpr:
			c.checkArith(n)
		}
		return true
	})
}

// checkConversion flags T2(e) where e's provenance names unit domain D1
// and T2 names a different domain D2 — a value laundered from one unit
// system into another, possibly through intermediate float64 casts and
// local variables.
func (c *checker) checkConversion(call *ast.CallExpr) {
	if tv, ok := c.unit.TypesInfo.Types[call.Fun]; !ok || !tv.IsType() {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	dst := domainOf(c.unit.TypesInfo.TypeOf(call))
	if dst == "" {
		return
	}
	src := c.prov(call.Args[0], make(map[*types.Var]bool))
	if src == "" || src == dst {
		return
	}
	c.report(call, fmt.Sprintf(
		"unit-laundering conversion: a %s value reaches %s through a bare numeric cast", src, dst))
}

// checkArith flags x + y / x - y where the operands carry provenance
// from two different unit domains. Multiplication and division change
// dimension by design and are not checked.
func (c *checker) checkArith(bin *ast.BinaryExpr) {
	if bin.Op != token.ADD && bin.Op != token.SUB {
		return
	}
	d1 := c.prov(bin.X, make(map[*types.Var]bool))
	if d1 == "" {
		return
	}
	d2 := c.prov(bin.Y, make(map[*types.Var]bool))
	if d2 == "" || d1 == d2 {
		return
	}
	c.report(bin, fmt.Sprintf("unit-mixing arithmetic: %s %s %s", d1, bin.Op, d2))
}

// report delivers the diagnostic unless a justified //hetpnoc:unitcast
// covers the expression's line.
func (c *checker) report(n ast.Node, msg string) {
	if dirs := c.dc.For(c.unit, n.Pos()); dirs != nil {
		if dir, ok := dirs.Covering(n, analysis.DirectiveUnitcast); ok {
			if dir.Arg == "" {
				c.mp.Reportf(n.Pos(),
					"//hetpnoc:unitcast needs a justification explaining why mixing unit domains is correct here",
					"//hetpnoc:unitcast <why the cross-domain value is correct>")
			}
			return
		}
	}
	c.mp.Reportf(n.Pos(), msg, suggestion)
}

// prov resolves the unit-domain provenance of e: the domain name when
// every path producing e's value traces to a single unit domain, ""
// when the value is untracked or ambiguous. It sees through bare
// numeric casts to untracked types (the laundering case), local
// variables with fully explained definitions (vflow), unary sign, and
// domain-preserving + and -.
func (c *checker) prov(e ast.Expr, seen map[*types.Var]bool) string {
	e = ast.Unparen(e)
	if d := domainOf(c.unit.TypesInfo.TypeOf(e)); d != "" {
		return d
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		// A conversion to an untracked numeric type passes provenance
		// through: float64(mw) is still a milliwatt quantity.
		if tv, ok := c.unit.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.prov(e.Args[0], seen)
		}
	case *ast.Ident:
		v, ok := c.unit.TypesInfo.Uses[e].(*types.Var)
		if !ok || seen[v] {
			return ""
		}
		seen[v] = true
		defs := c.fi.DefsOf(e)
		if len(defs) == 0 {
			return "" // parameter, closure capture, or unreachable
		}
		joined := ""
		for _, def := range defs {
			if def.RHS == nil {
				return "" // opaque definition
			}
			d := c.prov(def.RHS, seen)
			if d == "" {
				return ""
			}
			if joined == "" {
				joined = d
			} else if joined != d {
				return ""
			}
		}
		return joined
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			d1 := c.prov(e.X, seen)
			d2 := c.prov(e.Y, seen)
			switch {
			case d1 == d2:
				return d1
			case d1 == "":
				return d2
			case d2 == "":
				return d1
			}
			return "" // mixed: checkArith reports it at its own node
		}
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return c.prov(e.X, seen)
		}
	}
	return ""
}

// domainOf names the unit domain of a type: "units.<T>" for defined
// numeric types in a units package, "sim.Cycle" for the simulator's
// cycle counter, "time.<T>" for the standard library's wall-clock
// quantities. Untracked types yield "".
func domainOf(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return ""
	}
	switch seg := vflow.PkgLastSegment(pkg.Path()); {
	case seg == "units":
		return "units." + obj.Name()
	case seg == "sim" && obj.Name() == "Cycle":
		return "sim.Cycle"
	case pkg.Path() == "time":
		return "time." + obj.Name()
	}
	return ""
}
