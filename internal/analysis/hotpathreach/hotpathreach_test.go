package hotpathreach_test

import (
	"testing"

	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/hotpathreach"
)

// TestHotpathreach covers reachability: helpers pulled onto the hot
// path, chains on their diagnostics, and coldcall severing.
func TestHotpathreach(t *testing.T) {
	analysistest.RunModule(t, analysistest.TestData(), hotpathreach.Analyzer,
		"reach/hot",
	)
}

// TestHotpathalloc covers the allocation rules themselves inside
// annotated roots.
func TestHotpathalloc(t *testing.T) {
	analysistest.RunModule(t, analysistest.TestData(), hotpathreach.Analyzer,
		"hfix/hot",
	)
}
