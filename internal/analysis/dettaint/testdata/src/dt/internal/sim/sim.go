// Package sim exercises dettaint from the simulator side: calls into
// transitively nondeterministic helpers are errors, a direct source is
// reported once where it appears, and //hetpnoc:detsafe contains
// deliberate sampling.
package sim

import (
	"testing/quick"
	"time"

	"dt/helper"
)

func Tick() {
	helper.Jitter() // want `call to helper\.Jitter is nondeterministic in a simulator package \(taint: helper\.Jitter -> helper\.entropy -> time\.Now\)`
	helper.Shuffle() // want `call to helper\.Shuffle is nondeterministic in a simulator package \(taint: helper\.Shuffle -> range over map\)`
	helper.Clean()
	helper.SortedWalk()
}

func Prop() {
	_ = quick.Check(func() bool { return true }, nil) // want `testing/quick\.Check draws unseeded randomness in a simulator package`
}

// SafeProp samples deliberately; the annotation suppresses its reports.
//
//hetpnoc:detsafe property test prints the counterexample, state untouched
func SafeProp() {
	_ = quick.Check(func() bool { return true }, nil)
	helper.Jitter()
}

// BadDetsafe's directive is missing its justification.
//
//hetpnoc:detsafe
func BadDetsafe() {} // want `//hetpnoc:detsafe needs a justification`

// wall reads the wall clock directly: reported at the source.
func wall() time.Duration { return time.Since(time.Time{}) } // want `time\.Since reads the wall clock`

// Outer calls a tainted sim-package function; the taint source already
// carries its direct report, so the call edge stays silent.
func Outer() { _ = wall() }
