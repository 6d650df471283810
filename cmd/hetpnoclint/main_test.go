package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoLintsClean is the self-gate: the hetpnoclint suite must run
// clean over the repository that ships it, test files included. A
// failure here means a determinism or hot-path violation landed without
// a justified directive.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	diags, _, err := lint("", true, []string{"hetpnoc/..."}, analyzers)
	if err != nil {
		t.Fatalf("lint failed: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
	}
}

// TestLintFindsViolations drives the full pipeline — go list, parsing,
// type checking, every analyzer — over a scratch module with one
// violation per analyzer.
func TestLintFindsViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module badmod\n\ngo 1.22\n")
	write("internal/sim/bad.go", `package sim

import (
	"fmt"
	"math/rand"
	"time"
)

var hits int

func Draw(m map[string]int) int64 {
	s := 0
	for _, v := range m {
		s += v
	}
	hits += s
	return rand.Int63() + time.Now().UnixNano()
}

//hetpnoc:hotpath
func Hot(n int) string {
	return fmt.Sprintf("%d", n)
}
`)
	write("internal/sim/ctx.go", `package sim

import "context"

func StepContext(ctx context.Context) error { return ctx.Err() }

func Step() error { return nil }

func Use(ctx context.Context) {
	Step()
	_ = context.Background()
}

func Drop() {
	Step()
}
`)
	write("internal/sim/guard.go", `package sim

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int //hetpnoc:guardedby mu
}

func (c *Counter) Bump() {
	c.n++
}
`)
	// Whole-program layer bait. helper is a non-sim package whose
	// Jitter launders time.Now; fabric is a sim package (suffix match)
	// that calls it, and whose hotpath root reaches helper.Label's
	// fmt.Sprintf two frames down. Both nests two mutexes with no
	// declared order. Neither package has an API golden, so apistable
	// ignores the exported surface here. fabric also carries the
	// compiler-evidence bait (Esc's local moved to the heap on a hot
	// path) and the snapshot-coverage bait (Core's Snapshot/Restore
	// both miss the mutable drift field).
	write("internal/helper/helper.go", `package helper

import (
	"fmt"
	"sync"
	"time"
)

func Jitter() int64 { return time.Now().UnixNano() }

func Label(n int) string { return fmt.Sprintf("h%d", n) }

type Reg struct{ mu sync.Mutex }

type Log struct{ mu sync.Mutex }

func Both(r *Reg, l *Log) {
	r.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	r.mu.Unlock()
}
`)
	write("internal/fabric/fabric.go", `package fabric

import "badmod/internal/helper"

//hetpnoc:hotpath
func Step(n int) int {
	return len(helper.Label(n))
}

func Sync() int64 {
	return helper.Jitter()
}

//hetpnoc:hotpath
func Esc() *int {
	v := 0
	return &v
}

type Core struct {
	ticks int
	drift int
}

func (c *Core) Advance() {
	c.ticks++
	c.drift++
}

type CoreSnap struct{ ticks int }

func (c *Core) Snapshot() *CoreSnap { return &CoreSnap{ticks: c.ticks} }

func (c *Core) Restore(s *CoreSnap) { c.ticks = s.ticks }
`)
	// seedflow bait: a Fabric type in the fabric package whose consumer
	// reseeds on only one branch before running. The methods return
	// nothing so errsink stays out of the way, and Fabric has no capture
	// method so snapcover never adopts it as a subject.
	write("internal/fabric/fork.go", `package fabric

type Checkpoint struct{ state int }

type Fabric struct{ rng int }

func (f *Fabric) Restore(cp *Checkpoint) { f.rng = cp.state }

func (f *Fabric) Reseed(seed int) { f.rng = seed }

func (f *Fabric) Run(cycles int) { f.rng += cycles }

func Fork(f *Fabric, cp *Checkpoint, fresh bool) {
	f.Restore(cp)
	if fresh {
		f.Reseed(1)
	}
	f.Run(10)
}
`)
	// unitsafe bait: a mini units package defining two domains, and a
	// consumer that launders one into the other and adds them.
	write("internal/units/units.go", `package units

type DB float64

type MilliWatt float64
`)
	write("internal/power/power.go", `package power

import "badmod/internal/units"

func Mix(db units.DB, mw units.MilliWatt) float64 {
	return float64(db) + float64(mw)
}

func Launder(mw units.MilliWatt) units.DB {
	return units.DB(float64(mw))
}
`)
	// Concurrency-protocol bait: Spin leaks a forever-goroutine
	// (goleak), Give closes a channel it received and Twice closes one
	// twice (chanown), Race calls Add inside the goroutine it accounts
	// for (wgsync). tick() keeps every body side-effect-free without a
	// package-level var that would wake globalstate.
	write("internal/pool/pool.go", `package pool

import "sync"

func tick() {}

func Spin() {
	go func() {
		for {
			tick()
		}
	}()
}

func Give(ch chan int) {
	close(ch)
}

func Twice() {
	ch := make(chan int)
	close(ch)
	close(ch)
}

func Race() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Add(1)
		defer wg.Done()
		defer wg.Done()
		tick()
	}()
	wg.Wait()
}
`)
	// Stale API golden: lists one symbol that no longer exists, knows
	// the rest.
	write("internal/sim/testdata/api/sim.golden", "Counter\ttype struct\n"+
		"Counter.Bump\tmethod func()\n"+
		"Draw\tfunc func(m map[string]int) int64\n"+
		"Drop\tfunc func()\n"+
		"Gone\tfunc func()\n"+
		"Hot\tfunc func(n int) string\n"+
		"Step\tfunc func() error\n"+
		"StepContext\tfunc func(ctx context.Context) error\n"+
		"Use\tfunc func(ctx context.Context)\n")

	diags, _, err := lint(dir, true, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("lint failed: %v", err)
	}
	// Each bait is asserted on its own: the analyzer that must catch
	// it, the file it sits in and a substring of its message. Matching
	// one diagnostic per bait (rather than counting per analyzer) keeps
	// a lost bait from hiding behind a spurious extra report.
	wants := []struct{ analyzer, file, msg string }{
		{"dettaint", "internal/sim/bad.go", "import of math/rand is forbidden in simulator packages"},
		{"dettaint", "internal/sim/bad.go", "time.Now reads the wall clock"},
		{"dettaint", "internal/sim/bad.go", "range over map map[string]int has randomized iteration order"},
		{"globalstate", "internal/sim/bad.go", "package-level var hits in a simulator package"},
		{"hotpathreach", "internal/sim/bad.go", "fmt.Sprintf formats (and boxes its operands) on a hot path"},
		{"ctxflow", "internal/sim/ctx.go", "call to Step drops the in-scope context ctx"},
		{"ctxflow", "internal/sim/ctx.go", "context.Background() severs cancellation"},
		{"errsink", "internal/sim/ctx.go", "error result of Step is silently dropped"}, // in Use
		{"errsink", "internal/sim/ctx.go", "error result of Step is silently dropped"}, // in Drop
		{"lockguard", "internal/sim/guard.go", "write of Counter.n is not guarded by Counter.mu"},
		{"hotpathreach", "internal/helper/helper.go", "fmt.Sprintf formats (and boxes its operands) on a hot path (hot path: fabric.Step -> helper.Label)"},
		{"dettaint", "internal/fabric/fabric.go", "call to helper.Jitter is nondeterministic in a simulator package (taint: helper.Jitter -> time.Now)"},
		{"lockguard", "internal/helper/helper.go", "helper.Both reaches acquisitions of both Log.mu and Reg.mu with no declared order"},
		{"snapcover", "internal/fabric/fabric.go", "Core.Snapshot does not capture mutable field Core.drift"},
		{"snapcover", "internal/fabric/fabric.go", "Core.Restore does not restore mutable field Core.drift"},
		{"unitsafe", "internal/power/power.go", "unit-mixing arithmetic: units.DB + units.MilliWatt"},
		{"unitsafe", "internal/power/power.go", "unit-laundering conversion: a units.MilliWatt value reaches units.DB"},
		{"seedflow", "internal/fabric/fork.go", "Restore is not followed by Reseed on every path before Run"},
		{"goleak", "internal/pool/pool.go", "goroutine never terminates: func literal has no path to an exit"},
		{"chanown", "internal/pool/pool.go", "close of ch, a channel received as a parameter"},
		{"chanown", "internal/pool/pool.go", "close of ch, already closed on this path"},
		{"wgsync", "internal/pool/pool.go", "wg.Add inside the spawned goroutine"},
		{"apistable", "internal/sim/bad.go", "exported Gone (func func()) was removed from the API snapshot"},
	}
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Analyzer == w.analyzer &&
				strings.HasSuffix(filepath.ToSlash(d.File), w.file) && strings.Contains(d.Message, w.msg) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("bait not caught: %s in %s: %q", w.analyzer, w.file, w.msg)
		}
	}
	// allocproof counts come from the live compiler's -m=2 output, which
	// shifts with toolchain version (inlining attribution, moved/escape
	// pairing), so assert a floor: Esc's moved-to-heap local and Hot's
	// boxed Sprintf operand are unambiguous hot-path allocations.
	allocs := 0
	for i, d := range diags {
		if d.Suggestion == "" {
			t.Errorf("diagnostic without a suggestion: %s: %s", d.Analyzer, d.Message)
		}
		if d.Analyzer == "allocproof" {
			allocs++
			continue
		}
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
		}
	}
	if allocs < 2 {
		t.Errorf("analyzer allocproof reported %d diagnostics, want at least 2", allocs)
	}
}

// TestSelectAnalyzers covers the -only flag resolution: subset
// selection preserves suite order, names are trimmed and
// order-insensitive, unknown names fail, and the empty string selects
// the full suite.
func TestSelectAnalyzers(t *testing.T) {
	full, err := selectAnalyzers("")
	if err != nil {
		t.Fatalf("empty -only: %v", err)
	}
	if len(full) != len(analyzers) {
		t.Errorf("empty -only selected %d analyzers, want the full suite of %d", len(full), len(analyzers))
	}

	active, err := selectAnalyzers("seedflow, dettaint ,unitsafe")
	if err != nil {
		t.Fatalf("subset -only: %v", err)
	}
	gotNames := make([]string, len(active))
	for i, a := range active {
		gotNames[i] = a.Name
	}
	// Suite order, not flag order: dettaint runs first, apistable would
	// still run last if selected.
	wantNames := []string{"dettaint", "unitsafe", "seedflow"}
	if len(gotNames) != len(wantNames) {
		t.Fatalf("selected %v, want %v", gotNames, wantNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Fatalf("selected %v, want %v (suite order must be preserved)", gotNames, wantNames)
		}
	}

	if _, err := selectAnalyzers("dettaint,nosuch"); err == nil {
		t.Error("unknown analyzer name accepted, want error")
	}
	// The analyzers folded into dettaint, hotpathreach and lockguard
	// are gone from the suite.
	for _, gone := range []string{"detrand", "maprange", "hotpathalloc", "lockorder"} {
		if _, err := selectAnalyzers(gone); err == nil {
			t.Errorf("folded analyzer %s still selectable", gone)
		}
	}
}

// TestFixProducesGoldenTree drives the whole -fix pipeline: lint the
// deliberately broken fixture tree, apply every machine-applicable fix,
// and byte-compare each rewritten file against its want/ twin.
func TestFixProducesGoldenTree(t *testing.T) {
	broken := filepath.Join("testdata", "fixtree", "broken")
	wantDir := filepath.Join("testdata", "fixtree", "want")

	dir := t.TempDir()
	entries, err := os.ReadDir(broken)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(broken, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, fileFixes, err := lint(dir, true, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatalf("lint failed: %v", err)
	}
	applied, dropped, files, err := applyFixes(fileFixes, false)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if applied != 4 || dropped != 0 || files != 2 {
		t.Errorf("applied=%d dropped=%d files=%d, want 4/0/2", applied, dropped, files)
	}

	for _, name := range []string{"fixme.go", "errs.go"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s after -fix differs from want:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}
