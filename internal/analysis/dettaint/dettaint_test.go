package dettaint_test

import (
	"testing"

	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/dettaint"
)

// TestDettaint covers the interprocedural half: taint chains through
// helper packages, testing/quick and //hetpnoc:detsafe.
func TestDettaint(t *testing.T) {
	analysistest.RunModule(t, analysistest.TestData(), dettaint.Analyzer,
		"dt/internal/sim",
	)
}

// TestDetrand covers the direct wall-clock and entropy rules: every
// forbidden source in a simulator package, package scope included, and
// none in tooling.
func TestDetrand(t *testing.T) {
	analysistest.RunModule(t, analysistest.TestData(), dettaint.Analyzer,
		"simfix/internal/sim",
		"simfix/cmd/benchjson",
	)
}

// TestMaprange covers the direct map-iteration rule: undirected ranges
// in a simulator package, the sorted-keys prologue, orderfree
// directives, and unconstrained ranges in tooling.
func TestMaprange(t *testing.T) {
	analysistest.RunModule(t, analysistest.TestData(), dettaint.Analyzer,
		"mfix/internal/fabric",
		"mfix/internal/report",
	)
}
